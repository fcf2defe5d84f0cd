(** Machine presets mirroring the paper's benchmark hosts.

    Clock rates and CPU counts are taken from the paper; the cycle-cost
    constants are calibration (documented in DESIGN.md) chosen so the
    single-threaded benchmark-1 run lands near the paper's measurement.
    All multithreaded behaviour then emerges from the simulation. *)

val dual_pentium_pro : Machine.config
(** The paper's first host: dual 200 MHz Pentium Pro, i440FX board,
    Red Hat 5.1, glibc 2.0.6, kernel 2.2.0-pre4 (Tables 1, Figures 1–2). *)

val quad_xeon : Machine.config
(** Intel SC450NX: four 500 MHz Pentium III Xeons, 512 KB L2, Red Hat 6.1
    (Table 3, Table 4, Figure 4, Figure 8, and all of benchmark 3). *)

val dual_ultrasparc : Machine.config
(** Sun Ultra AX-MP: two 400 MHz UltraSPARC II, Solaris 2.6 (Table 2,
    Figure 3). Solaris 2.6 default mutexes park immediately instead of
    spinning, hence [spin_cycles = 0]. *)

val uni_k6 : Machine.config
(** Custom 400 MHz AMD K6-2, 64 MB, Red Hat 6.0 (benchmark 2's
    uniprocessor runs, Figures 5–7). *)

val by_name : string -> Machine.config option
(** Lookup by CLI-friendly name ("dual_pentium_pro", "quad_xeon",
    "dual_ultrasparc", "uni_k6"). *)

val names : string list

val label : Machine.config -> string
(** A run label's name for [config]: the preset's name when [config]
    equals a preset, otherwise its CPU count and clock plus a digest of
    every field, e.g. ["4x500MHz-1f0c2a9e"]. Equal configs get equal
    labels and different configs different ones. *)
