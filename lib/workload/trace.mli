(** Allocation traces: generation and replay (paper section 6 future
    work: "test our assumptions about the allocation patterns of
    large-scale network servers by instrumenting heavily used servers to
    generate trace data").

    A trace is a well-formed sequence of slot-based operations: an
    [Alloc] fills an empty slot, a [Free] empties a full one. Replaying
    the same trace against different allocators gives an
    apples-to-apples comparison driven by one allocation pattern. *)

type op =
  | Alloc of { slot : int; size : int }
  | Free of { slot : int }

type t = op array

val server_size_dist : Mb_prng.Rng.t -> int
(** The paper's observation (after [4, 5]) that servers use few sizes
    near 40 bytes: 70% exactly 40 B, 20% small strings (16–128 B), 9%
    medium (128–2 KB), 1% 8 KB buffers. *)

type req_class = Read | Write | Update
(** Mixed request classes for the open-loop server: reads allocate
    scratch buffers ({!server_size_dist}), writes carry larger payloads
    ({!write_size_dist}) with the realloc response-growth pattern, and
    updates swap the per-connection state object under the table lock —
    the foreign-free path ({!update_size_dist}). *)

val class_label : req_class -> string

val write_size_dist : Mb_prng.Rng.t -> int
(** Write-payload sizes: 40% 128 B–1 KB, 45% 1–4 KB, 15% 8 KB. *)

val update_size_dist : Mb_prng.Rng.t -> int
(** Update scratch sizes: 60% exactly 40 B, 35% 16–64 B, 5% 256–512 B. *)

val generate :
  rng:Mb_prng.Rng.t ->
  ops:int ->
  slots:int ->
  ?size_of:(Mb_prng.Rng.t -> int) ->
  unit ->
  t
(** Random well-formed trace over [slots] concurrent objects, roughly
    balanced between allocation and release, using [size_of] (default
    {!server_size_dist}) for request sizes. *)

val validate : t -> slots:int -> (unit, string) result
(** Checks well-formedness (no double alloc/free, slots in range). *)

val replay : Mb_alloc.Allocator.t -> Mb_machine.Machine.ctx -> t -> slots:int -> int
(** Runs the trace on an allocator, touching each allocation, and frees
    any slots still live at the end. Returns the number of trace
    allocations skipped after the fault layer's retries ran out (the
    matching frees are skipped too); always 0 unless a [--faults] plan
    is armed. *)
