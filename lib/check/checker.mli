(** Dynamic correctness checker for one simulated machine.

    A checker is the sink the instrumented layers (machine mutexes,
    simulated memory accesses, allocator entry points) feed while a run
    executes. It hosts three detectors:

    - an Eraser-style {e lockset race detector}: every thread's current
      mutex hold-set is tracked, and every checked memory address keeps
      a shadow state (exclusive to its first thread, then shared with a
      candidate lockset refined by intersection on each access). A
      write to a shared address whose candidate lockset has become
      empty is reported as a race, with the address, both thread ids
      and the (empty) intersection's history;
    - an {e allocation sanitizer}: live blocks are tracked by user base
      address in an {!Mb_sim.Int_table}, so double-frees, touches of
      freed blocks and touches that overrun a block's usable size are
      reported with the allocating and freeing thread ids;
    - bookkeeping that the machine's structured stall report
      ({!Mb_sim.Engine.Stalled}) builds on — the checker itself stays
      address/integer-typed and knows nothing about machine records.

    Granularity: the race detector shadows the exact addresses the
    simulation touches — word accesses shadow their address, bulk
    range touches shadow the range's base — which matches the
    simulation's block-granular memory model. Allocator-internal
    accesses (chunk headers, arena descriptors) run inside
    {!enter_runtime}/{!exit_runtime} brackets and are exempt from both
    detectors: allocators legitimately migrate metadata between locks,
    and the detectors target the workload-level protocol above them.

    A disabled checker ({!null}) is branch-cheap: every hook loads one
    immutable boolean and returns. Checking consumes no simulated time
    and no randomness, so an armed run computes byte-identical results
    to an unarmed one. Like a recorder, a checker is confined to the
    domain that owns its machine and needs no locking. *)

type t
(** A checker instance; create one per simulated machine. *)

(** What a finding is about. *)
type kind =
  | Race            (** unsynchronized conflicting accesses *)
  | Double_free     (** [free] of an already-freed block *)
  | Use_after_free  (** touch of a freed block *)
  | Out_of_bounds   (** touch overrunning a block's usable size *)

type finding = {
  kind : kind;
  addr : int;       (** the offending simulated address (user view) *)
  message : string; (** human-readable one-liner with thread ids *)
}
(** One reported defect. Messages are deterministic for a
    deterministic run, so finding lists are stable across invocations
    and pool widths. *)

val null : t
(** The shared disabled checker: never records, never reports. *)

val create : unit -> t
(** A fresh armed checker. *)

val armed : t -> bool
(** [true] iff this checker records; instrumentation sites branch on
    this before paying any hook cost. *)

val kind_label : kind -> string
(** Short label for report lines: ["race"], ["double-free"],
    ["use-after-free"], ["out-of-bounds"]. *)

(** {1 Lock hooks (machine mutexes)} *)

val lock_acquired : t -> tid:int -> mid:int -> name:string -> unit
(** The thread now holds mutex [mid] ([name] is remembered for race
    reports). Called on every successful acquisition, including
    direct hand-offs. *)

val lock_released : t -> tid:int -> mid:int -> unit
(** The thread no longer holds mutex [mid]. *)

(** {1 Memory hooks (simulated accesses)} *)

val on_access : t -> tid:int -> asid:int -> addr:int -> write:bool -> unit
(** A one-word access at [addr] in address space [asid]. Runs the
    lockset state machine and the freed-block check. *)

val on_range : t -> tid:int -> asid:int -> addr:int -> len:int -> unit
(** A bulk touch of [\[addr, addr+len)] (treated as a write at the
    range's base for the race detector), plus the sanitizer's
    bounds/freedness checks when [addr] is a tracked block base. *)

(** {1 Allocation hooks} *)

val on_alloc : t -> tid:int -> asid:int -> addr:int -> len:int -> unit
(** A block of [len] usable bytes now lives at [addr]: (re)arms the
    sanitizer entry and resets the race shadow at the base — freshly
    allocated memory starts over as virgin, which is what keeps
    cross-thread block reuse (the paper's foreign frees) from reading
    as a race. *)

val on_free : t -> tid:int -> asid:int -> addr:int -> bool
(** A free of [addr] is about to run. Returns [true] when the real
    free should proceed; on a double-free it records the finding and
    returns [false] so the simulated heap survives to the end of the
    run (the way a hardened allocator would refuse). Unknown addresses
    return [true] and are left to the allocator's own validation. *)

(** {1 Runtime suppression} *)

val enter_runtime : t -> tid:int -> unit
(** Mark the thread as executing allocator-internal code: its memory
    accesses are exempt from both detectors until the matching
    {!exit_runtime}. Brackets nest. *)

val exit_runtime : t -> tid:int -> unit

(** {1 Findings} *)

val findings : t -> finding list
(** All findings in report order (capped; see {!finding_count} for the
    true total). *)

val finding_count : t -> int
(** Number of findings recorded, including any beyond the retention
    cap. *)
