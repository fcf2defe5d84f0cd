type t = {
  mutable mallocs : int;
  mutable frees : int;
  mutable bytes_requested : int;
  mutable live_bytes : int;
  mutable live_objects : int;
  mutable peak_live_bytes : int;
  mutable arenas_created : int;
  mutable arena_switches : int;
  mutable contended_ops : int;
  mutable foreign_frees : int;
  mutable mmapped_chunks : int;
  mutable grow_failures : int;
  mutable deferred_frees : int;
  mutable consolidations : int;
}

let create () =
  { mallocs = 0;
    frees = 0;
    bytes_requested = 0;
    live_bytes = 0;
    live_objects = 0;
    peak_live_bytes = 0;
    arenas_created = 0;
    arena_switches = 0;
    contended_ops = 0;
    foreign_frees = 0;
    mmapped_chunks = 0;
    grow_failures = 0;
    deferred_frees = 0;
    consolidations = 0;
  }

let record_malloc t size =
  t.mallocs <- t.mallocs + 1;
  t.bytes_requested <- t.bytes_requested + size;
  t.live_bytes <- t.live_bytes + size;
  t.live_objects <- t.live_objects + 1;
  if t.live_bytes > t.peak_live_bytes then t.peak_live_bytes <- t.live_bytes

let record_free t size =
  t.frees <- t.frees + 1;
  t.live_bytes <- t.live_bytes - size;
  t.live_objects <- t.live_objects - 1

let live_bytes t = t.live_bytes

let publish t obs =
  let module Obs = Mb_obs.Recorder in
  if Obs.metering obs then begin
    Obs.add obs "alloc.mallocs" t.mallocs;
    Obs.add obs "alloc.frees" t.frees;
    Obs.add obs "alloc.bytes_requested" t.bytes_requested;
    Obs.add obs "alloc.peak_live_bytes" t.peak_live_bytes;
    Obs.add obs "alloc.arena.created" t.arenas_created;
    Obs.add obs "alloc.arena.switches" t.arena_switches;
    Obs.add obs "alloc.contended_ops" t.contended_ops;
    Obs.add obs "alloc.free.foreign" t.foreign_frees;
    Obs.add obs "alloc.mmapped_chunks" t.mmapped_chunks;
    Obs.add obs "alloc.grow_failures" t.grow_failures;
    if t.deferred_frees > 0 then Obs.add obs "alloc.free.deferred" t.deferred_frees;
    if t.consolidations > 0 then Obs.add obs "alloc.consolidations" t.consolidations
  end
