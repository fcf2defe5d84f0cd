(* Layer kernels: each prices one layer by calling only its public
   functions from here, with nothing else in the loop. A kernel builds its
   own fresh state and performs [ops] operations; the driver times many
   repetitions and reports host ns and minor GC words per operation.

   The calls stay inside what the engine and queue simplifications keep:
   Timing_wheel push/peek_key/pop, Engine create/spawn/delay/park/run,
   Machine.Mutex, Coherence read/write, Address_space mmap/touch, and the
   Allocator record for the replayed stream. *)

module E = Core.Engine
module W = Mb_sim.Timing_wheel
module M = Core.Machine
module A = Core.Allocator

type t = {
  name : string;  (** metric prefix, e.g. ["sim.delay"] *)
  ops : int;      (** operations one call of [body] performs *)
  body : unit -> unit;
}

let delay ~ops =
  { name = "sim.delay";
    ops;
    body =
      (fun () ->
        let e = E.create () in
        ignore (E.spawn e (fun () -> for _ = 1 to ops do E.delay 10. done) : E.pid);
        E.run e);
  }

(* Two processes hand control back and forth: each round one wakes the
   other, then parks. One op is one park plus the matching resume. *)
let park_unpark ~ops =
  { name = "sim.park_unpark";
    ops;
    body =
      (fun () ->
        let e = E.create () in
        let parked = [| None; None |] in
        let wake i =
          match parked.(i) with
          | Some resume ->
              parked.(i) <- None;
              resume ()
          | None -> ()
        in
        let proc me other () =
          for _ = 1 to ops / 2 do
            wake other;
            E.park (fun resume -> parked.(me) <- Some resume)
          done;
          wake other
        in
        ignore (E.spawn e (proc 0 1) : E.pid);
        ignore (E.spawn e (proc 1 0) : E.pid);
        E.run e);
  }

(* Steady-state queue of [depth] events: pop the earliest, push one
   [delta] later, with deltas cycled from a fixed table. The pushed keys
   are worked out once here, so the timed body does no float arithmetic
   of its own. *)
let wheel ~name ~ops ~depth ~deltas =
  let nd = Array.length deltas in
  let keys = Array.init depth (fun i -> W.key_of_time deltas.(i mod nd)) in
  let keys = Array.append keys (Array.make ops 0) in
  let w = W.create () in
  for i = 0 to depth - 1 do
    W.push w keys.(i) i
  done;
  for i = depth to depth + ops - 1 do
    let t = W.time_of_key (W.peek_key w) in
    W.pop w;
    keys.(i) <- W.key_of_time (t +. deltas.(i mod nd));
    W.push w keys.(i) i
  done;
  { name;
    ops;
    body =
      (fun () ->
        let w = W.create () in
        for i = 0 to depth - 1 do
          W.push w keys.(i) i
        done;
        for i = depth to depth + ops - 1 do
          ignore (W.peek_key w : int);
          W.pop w;
          W.push w keys.(i) i
        done);
  }

let deltas ~lo ~hi =
  let rng = Core.Rng.create ~seed:17 in
  Array.init 4096 (fun _ -> lo +. Core.Rng.float rng (hi -. lo))

(* A queue shallower than the ring's soft bound, as in every workload
   today: every push lands in the sorted ring. *)
let wheel_ring ~ops =
  wheel ~name:"sim.wheel_push_pop" ~ops ~depth:(W.ring_target / 2) ~deltas:(deltas ~lo:1. ~hi:512.)

(* A deep queue with deltas from 1 us to 0.3 s: most pushes land past
   the ring's gate, in the wheel levels. *)
let wheel_far ~ops =
  wheel ~name:"sim.wheel_far_push_pop" ~ops ~depth:(64 * W.ring_target) ~deltas:(deltas ~lo:1e3 ~hi:3e8)

let lock_unlock cfg ~ops =
  { name = "machine.lock_unlock";
    ops;
    body =
      (fun () ->
        let m = M.create ~seed:1 cfg in
        let p = M.create_proc m () in
        let mu = M.Mutex.create m () in
        ignore
          (M.spawn p (fun ctx ->
               for _ = 1 to ops do
                 M.Mutex.lock mu ctx;
                 M.Mutex.unlock mu ctx
               done)
            : M.thread);
        M.run m);
  }

(* Two threads on separate CPUs share one mutex and hold it across a
   little work, so most acquisitions find it held. *)
let lock_contended cfg ~ops =
  { name = "machine.lock_contended";
    ops;
    body =
      (fun () ->
        let m = M.create ~seed:1 cfg in
        let p = M.create_proc m () in
        let mu = M.Mutex.create m () in
        for _ = 1 to 2 do
          ignore
            (M.spawn p (fun ctx ->
                 for _ = 1 to ops / 2 do
                   M.Mutex.lock mu ctx;
                   M.work ctx 200;
                   M.Mutex.unlock mu ctx;
                   M.work ctx 50
                 done)
              : M.thread)
        done;
        M.run m);
  }

(* Replays a recorded malloc/free stream on a one-thread machine with a
   fresh allocator, so no call can suspend and let another thread's host
   work into the timing. One op is two calls (a malloc and a free). *)
let alloc_pair cfg (factory : Core.Factory.t) (stream : Core.Trace.t) ~slots =
  { name = "alloc.pair";
    ops = max 1 (Array.length stream / 2);
    body =
      (fun () ->
        let m = M.create ~seed:1 cfg in
        let p = M.create_proc m () in
        let a = factory.Core.Factory.create p in
        let live = Array.make slots 0 in
        ignore
          (M.spawn p (fun ctx ->
               Array.iter
                 (function
                   | Core.Trace.Alloc { slot; size } -> live.(slot) <- a.A.malloc ctx size
                   | Core.Trace.Free { slot } ->
                       a.A.free ctx live.(slot);
                       live.(slot) <- 0)
                 stream)
            : M.thread);
        M.run m);
  }

module C = Core.Coherence

let write_hit (cfg : M.config) ~ops =
  { name = "cache.write_hit";
    ops;
    body =
      (fun () ->
        let c = C.create cfg.M.cache ~cpus:cfg.cpus in
        for _ = 1 to ops do
          ignore (C.write c ~cpu:0 0x1000 : int)
        done);
  }

(* Two CPUs alternate stores to one line: every store moves the line. *)
let transfer (cfg : M.config) ~ops =
  { name = "cache.transfer";
    ops;
    body =
      (fun () ->
        let c = C.create cfg.M.cache ~cpus:cfg.cpus in
        ignore (C.read c ~cpu:1 0x1000 : int);
        for i = 1 to ops do
          ignore (C.write c ~cpu:(i land 1) 0x1000 : int)
        done);
  }

module V = Core.Address_space

let first_touch (cfg : M.config) ~ops =
  { name = "vm.first_touch";
    ops;
    body =
      (fun () ->
        let v = V.create cfg.M.vm in
        let page = V.page_size v in
        match V.mmap v ~len:(ops * page) with
        | None -> failwith "vm.first_touch: mmap zone too small"
        | Some base ->
            for i = 0 to ops - 1 do
              ignore (V.touch v (base + (i * page)) ~len:1 : int)
            done);
  }

(* Every kernel but the replay, which needs the recorded stream. *)
let fixed cfg =
  [ delay ~ops:20_000;
    park_unpark ~ops:20_000;
    wheel_ring ~ops:50_000;
    wheel_far ~ops:50_000;
    lock_unlock cfg ~ops:20_000;
    lock_contended cfg ~ops:10_000;
    write_hit cfg ~ops:100_000;
    transfer cfg ~ops:100_000;
    first_touch cfg ~ops:4_096;
  ]
