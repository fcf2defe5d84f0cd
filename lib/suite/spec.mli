(** Declarative benchmark-suite specs (LMBench-style orchestration).

    A suite file declares the cartesian product the runner should
    expand — machines x allocators x workloads x fault plans — once,
    instead of hand-wiring it through CLI flags. The
    format is line-based, one directive per line:

    {v
    # comments and blank lines are ignored
    suite quick-registry
    mode quick
    seed 1
    machines quad_xeon uni_k6
    allocators ptmalloc serial
    workloads exp:* bench2 server
    faults none oom-pressure:7
    repeats 1
    v}

    [suite] and [workloads] are required; every other directive has a
    default ([mode quick], [seed 1], [machines quad_xeon],
    [allocators ptmalloc], [faults none], [repeats 1]).
    Directives may appear in any order but at most once, and the
    entries of each axis must be distinct (duplicate entries would
    expand to colliding cell keys in the history file).

    {!of_string} and {!to_string} round-trip: parsing the printed form
    of a spec yields the same spec, which is what lets a suite file be
    regenerated, diffed and property-tested. Parse errors carry the
    1-based line number of the offending directive. *)

type workload =
  | Exp of string  (** one experiment-registry id, written [exp:ID] *)
  | Exp_all        (** the whole registry in registry order, [exp:*] *)
  | Bench1         (** the scalability microbenchmark at suite scale *)
  | Bench2         (** the heap-leak microbenchmark *)
  | Bench3         (** the false-sharing microbenchmark *)
  | Server_open    (** the open-loop server just past its knee *)

type t = {
  name : string;
  mode : [ `Quick | `Full ];
  seed : int;
  machines : string list;    (** {!Mb_machine.Configs} names *)
  allocators : string list;  (** {!Mb_workload.Factory} names *)
  workloads : workload list;
  faults : (Mb_fault.Plan.t * int) option list;  (** [None] = no faults *)
  repeats : int;  (** timed repetitions per cell in the metering phase *)
}

val of_string : string -> (t, string) result
(** Parses a suite file. [Error] messages are prefixed
    ["line N: ..."] for the directive that failed; missing required
    directives report against the end of the file. *)

val to_string : t -> string
(** Canonical form: every directive printed, fixed order, one per
    line. [of_string (to_string t) = Ok t]. *)

(** {1 Expansion} *)

type cell = {
  key : string;  (** canonical id, e.g. [bench2\@uni_k6/ptmalloc+oom-pressure:7] *)
  workload : workload;          (** never [Exp_all]; resolved to [Exp id] *)
  machine : string option;      (** [None] for experiment cells (baked in) *)
  allocator : string option;
  fault : (Mb_fault.Plan.t * int) option;
  cell_seed : int;              (** derived deterministically from the spec seed *)
}

val expand : t -> exp_ids:string list -> (cell list, string) result
(** Expands the product in a deterministic order: workloads in spec
    order (with [exp:*] replaced by [exp_ids] in registry order), then
    machines x allocators (bench workloads only — experiment cells
    carry their machines and allocators in the registry), then fault
    plans, each innermost axis varying fastest. Experiment cells use
    the spec seed unchanged so a faults-off suite reproduces a direct
    registry run byte-identically; bench
    cells get [seed + 101*k] with [k] the cell's ordinal within its
    workload block. [Error] on an [exp:ID] not present in [exp_ids]. *)
