module Obs = Mb_obs.Recorder
module Tw = Timing_wheel

type pid = int

(* The clock is an all-float record, advanced in place: its fields are
   stored unboxed, so moving the clock allocates nothing. [wake] hands
   a delay's wake-up time from [delay_pending] or [effc] to the handler
   closure (see [start]). *)
type clock = { mutable time : float; mutable wake : float }

(* Pending events live in one {!Timing_wheel}, ordered by (time, seq).
   The engine stores each event's payload — a bare continuation for a
   suspended process, a thunk for [at]/[spawn] — in its own arena and
   files only a small integer with the wheel:

       v = (arena slot lsl 1) lor tag      tag 1 = thunk, 0 = continuation

   The [Obj.t] arena replaces the old two-word [Thunk]/[Resume] variant
   around every event: the hot Delay path now allocates nothing beyond
   the runtime's continuation, and its only barriered store is parking
   the payload in its slot. The tag bit keeps the decode honest — it is
   the single source of truth for what each slot holds, and the only
   two writers ([at]/[spawn] vs the Delay/Park handlers) each stamp
   their own kind.

   The wheel's tie-break is [pk = (seq lsl vbits) lor v]: sequence
   numbers are unique, so comparing pks compares seqs and the payload
   value rides along for free. seq gets 63 - vbits = 42 bits — engine
   lifetimes are nowhere near that. Being unique, a thunk event's pk
   is also its handle for [cancel]: it names the queued item and its
   arena slot, and no later event reuses it. *)

(* 2^slot_bits bounds the number of *pending* events; vbits adds the
   tag bit. *)
let slot_bits = 20
let max_slots = 1 lsl slot_bits
let vbits = slot_bits + 1
let v_mask = (1 lsl vbits) - 1

type handle = int

(* No pk is negative. *)
let no_event = -1

type t = {
  clock : clock;
  wheel : Tw.t;
  mutable next_seq : int;  (* stamps every push; also the push count *)
  (* Event payload arena + free-list stack: popped slots are not
     cleared — the write costs more than the bounded retention it
     avoids — and are reused by the next push. *)
  mutable slots : Obj.t array;
  mutable free : int array;
  mutable free_top : int;
  mutable next_pid : int;
  mutable live : int;
  (* Processes currently suspended, indexed by pid: a flat array beats a
     Hashtbl on the park/resume hot path (no hashing, no bucket walk). *)
  mutable parked : bool array;
  mutable parked_count : int;
  (* Process names, indexed by pid; "" means "never named", and the
     default "proc-<pid>" is materialized only when something actually
     needs the string (a trace lane, an error message) — unobserved runs
     skip the Printf entirely. *)
  mutable names : string array;
  (* Wait-for bookkeeping, indexed by pid and meaningful only while
     parked: what the process is waiting for (free-form, set by the
     layer that parked it) and which pid it waits on (-1 when the
     target is not a process, e.g. a cpu). Feeds the structured
     [Stalled] report; costs one store per park on layers that opt in. *)
  mutable whys : string array;
  mutable waits : int array;
  (* Hand-off slot between [effc] and the preallocated Park handler
     closure (see [start]); holds [no_register] outside a perform. *)
  mutable pending_register : (unit -> unit) -> unit;
  obs : Obs.t;  (* trace sink; Obs.null unless the run is observed *)
}

let no_register : (unit -> unit) -> unit = fun _ -> ()

(* "No suspended continuation", compared physically. *)
let no_cont = Obj.repr 0

type waiter = {
  wpid : pid;
  wname : string;
  wwhy : string;
  wwaits_on : pid;
}

type stall = {
  waiters : waiter list;
  cycle : waiter list;
}

exception Stalled of stall

let stall_message st =
  let b = Buffer.create 256 in
  Printf.bprintf b "simulation stalled: %d process(es) parked with no runnable event"
    (List.length st.waiters);
  List.iter
    (fun w ->
      Printf.bprintf b "\n  %s (pid %d): %s" w.wname w.wpid w.wwhy;
      if w.wwaits_on >= 0 then Printf.bprintf b " [waits on pid %d]" w.wwaits_on)
    st.waiters;
  (match st.cycle with
  | [] -> ()
  | first :: _ as c ->
      Printf.bprintf b "\n  deadlock cycle: %s"
        (String.concat " -> " (List.map (fun w -> w.wname) c @ [ first.wname ])));
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Stalled st -> Some ("Engine.Stalled: " ^ stall_message st)
    | _ -> None)

type _ Effect.t += Delay : float -> unit Effect.t
type _ Effect.t += Park : ((unit -> unit) -> unit) -> unit Effect.t

(* Constant-constructor twin of [Delay]: the wake-up time travels
   through the engine's [clock.wake] instead of the effect value, so a
   perform allocates no effect block and no float box. This is the
   machine layer's hot path — see [delay_pending]. *)
type _ Effect.t += Tick : unit Effect.t

(* Constant-constructor twin of [Park] for engine-level pollers: the
   register callback travels through [pending_register] (a store, not
   an effect-block allocation), and the handler does none of Park's
   bookkeeping — no parked flags, no trace instants. The resume it
   hands out re-enters the process with a direct [continue], so it must
   be called exactly once, from an event context (a queued thunk). *)
type _ Effect.t += Suspend : unit Effect.t

let create ?(obs = Obs.null) () =
  { clock = { time = 0.; wake = 0. };
    wheel = Tw.create ();
    next_seq = 0;
    slots = [||];
    free = [||];
    free_top = 0;
    next_pid = 0;
    live = 0;
    parked = Array.make 16 false;
    parked_count = 0;
    names = Array.make 16 "";
    whys = Array.make 16 "";
    waits = Array.make 16 (-1);
    pending_register = no_register;
    obs;
  }

let observer t = t.obs

let[@inline] now t = t.clock.time

let name_of t pid =
  let n = t.names.(pid) in
  if n = "" then Printf.sprintf "proc-%d" pid else n

(* --- event payload arena ---------------------------------------------- *)

let grow_arena t =
  let cap = Array.length t.slots in
  let ncap = if cap = 0 then 16 else 2 * cap in
  if ncap > max_slots then invalid_arg "Engine: too many pending events";
  let nslots = Array.make ncap (Obj.repr 0) in
  Array.blit t.slots 0 nslots 0 cap;
  (* Every slot below cap is live or on the free stack, so the fresh
     slots cap .. ncap-1 extend the surviving free stack. *)
  let nfree = Array.make ncap 0 in
  Array.blit t.free 0 nfree 0 t.free_top;
  for s = cap to ncap - 1 do
    nfree.(t.free_top + s - cap) <- s
  done;
  t.slots <- nslots;
  t.free <- nfree;
  t.free_top <- t.free_top + (ncap - cap)

let alloc_slot t payload =
  if t.free_top = 0 then grow_arena t;
  let ft = t.free_top - 1 in
  t.free_top <- ft;
  let slot = Array.unsafe_get t.free ft in
  Array.unsafe_set t.slots slot payload;
  slot

(* --- the event queue ---------------------------------------------------- *)

(* One push per simulated event: stamp [v] with the next sequence
   number and file it at [time]. The stamped pk is the event's
   handle. *)
let[@inline] push t time v =
  let pk = (t.next_seq lsl vbits) lor v in
  t.next_seq <- t.next_seq + 1;
  Tw.push t.wheel (Tw.key_of_time time) pk;
  pk

(* --- scheduling entry points ------------------------------------------ *)

(* Written as [not (time >= now)] so a NaN time fails the guard too: a
   NaN would otherwise sort after every real time and poison the clock
   when it fires. *)
let[@inline] at t time thunk =
  if not (time >= t.clock.time) then invalid_arg "Engine.at: time in the past";
  push t time ((alloc_slot t (Obj.repr (thunk : unit -> unit)) lsl 1) lor 1)

(* The removal finds the event by its unique pk, so a handle whose
   event already ran or was cancelled finds nothing, even when a later
   event took its arena slot. *)
let cancel t h =
  if not (Tw.remove t.wheel h) then invalid_arg "Engine.cancel: event already ran or was cancelled";
  Array.unsafe_set t.free t.free_top ((h land v_mask) lsr 1);
  t.free_top <- t.free_top + 1

let delay d = Effect.perform (Delay d)

(* Immediate-resume fast path: if the delayed process would be the next
   event popped anyway — its wake-up time is strictly earlier than
   everything queued — the suspend/enqueue/pop/resume round trip is pure
   overhead: nothing else runs in between and no per-event observation
   exists, so advancing the clock and returning is observationally
   identical (a tie must go through the queue: the queued event's lower
   sequence number wins FIFO order). Skipping the push leaves sequence
   numbers smaller than they would have been, which is invisible — seqs
   only order events relative to each other and stay monotonic. This
   skips the effect perform and the runtime's continuation capture, by
   far the most expensive parts of a simulated delay.

   The comparison runs on integer time keys: the key image of
   non-negative floats is strictly monotone (see Timing_wheel), and an
   empty queue peeks as [max_int], above every real time's key. The
   guard is [not (nt >= clock)] so a NaN duration fails it too, on
   this path or in the handler. *)
let[@inline] delay_pending t d =
  let clock = t.clock.time in
  let nt = clock +. d in
  if Tw.key_of_time nt < Tw.peek_key t.wheel then begin
    if not (nt >= clock) then invalid_arg "Engine.delay: negative delay";
    t.clock.time <- nt
  end
  else begin
    t.clock.wake <- nt;
    Effect.perform Tick
  end

let park register = Effect.perform (Park register)

let suspend t register =
  t.pending_register <- register;
  Effect.perform Suspend

let yield () = delay 0.

let set_parked t pid =
  if not t.parked.(pid) then begin
    t.parked_count <- t.parked_count + 1;
    t.parked.(pid) <- true
  end

let clear_parked t pid =
  if t.parked.(pid) then begin
    t.parked.(pid) <- false;
    t.parked_count <- t.parked_count - 1;
    t.whys.(pid) <- "";
    t.waits.(pid) <- -1
  end

let set_wait t pid ~why ~waits_on =
  t.whys.(pid) <- why;
  t.waits.(pid) <- waits_on

(* Run one step of a process body under the engine's effect handler. The
   handler is installed once per process; continuations captured by Delay
   and Park re-enter it automatically (deep handlers).

   Allocation discipline: a simulated thread performs Delay on every
   work item and memory access, so the per-perform cost here is the
   hottest path in the whole simulator. The [effc] callback therefore
   returns closures preallocated once per process ([on_delay]/[on_park]
   below) instead of building a [Some (fun k -> ...)] per perform; the
   effect's payload is handed from [effc] to the closure through the
   engine's unboxed [clock.wake] ([Delay]) or the [pending_register]
   field ([Park]) — both stores, not allocations. A Delay perform thus
   allocates only the effect value itself and the runtime's
   continuation; the continuation is filed in the event arena with no
   wrapper. *)
let start t pid body =
  let open Effect.Deep in
  let finish () =
    t.live <- t.live - 1;
    clear_parked t pid;
    if Obs.tracing t.obs then
      Obs.instant t.obs ~lane:pid ~name:"exit" ~ts_ns:t.clock.time ()
  in
  let on_delay : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        (* [clock.wake] already holds clock + d (written by effc
           below, or by [delay_pending]); [not (>=)] rejects a NaN as
           well as a negative d. *)
        if not (t.clock.wake >= t.clock.time) then
          discontinue k (Invalid_argument "Engine.delay: negative delay")
        else begin
          let slot = alloc_slot t (Obj.repr k) in
          ignore (push t t.clock.wake (slot lsl 1) : handle)
        end)
  in
  let on_park : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        let register = t.pending_register in
        t.pending_register <- no_register;
        set_parked t pid;
        if Obs.tracing t.obs then
          Obs.instant t.obs ~lane:pid ~name:"park" ~ts_ns:t.clock.time ();
        let resumed = ref false in
        let resume () =
          if !resumed then
            invalid_arg (Printf.sprintf "Engine: process %s resumed twice" (name_of t pid));
          resumed := true;
          clear_parked t pid;
          if Obs.tracing t.obs then
            Obs.instant t.obs ~lane:pid ~name:"unpark" ~ts_ns:t.clock.time ();
          let slot = alloc_slot t (Obj.repr k) in
          ignore (push t t.clock.time (slot lsl 1) : handle)
        in
        register resume)
  in
  (* Suspend hands out one resume per process, built here: the pending
     continuation waits in [suspended] ([no_cont] when none), so a
     suspend allocates nothing beyond the runtime's continuation. *)
  let suspended = ref no_cont in
  let resume_suspended () =
    let k = !suspended in
    if k == no_cont then
      invalid_arg (Printf.sprintf "Engine: process %s resumed twice" (name_of t pid));
    suspended := no_cont;
    Effect.Deep.continue (Obj.obj k : (unit, unit) continuation) ()
  in
  let on_suspend : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        (* Park minus all bookkeeping: the process is only ever gone
           for the lifetime of its own pending poller events, so the
           stall/trace machinery never needs to know. *)
        let register = t.pending_register in
        t.pending_register <- no_register;
        suspended := Obj.repr k;
        register resume_suspended)
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    fun eff ->
     match eff with
     | Tick -> on_delay
     | Delay d ->
         t.clock.wake <- t.clock.time +. d;
         on_delay
     | Park register ->
         t.pending_register <- register;
         on_park
     | Suspend -> on_suspend
     | _ -> None
  in
  match_with
    (fun () ->
      body ();
      finish ())
    ()
    { retc = (fun () -> ());
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace e bt);
      effc
    }

let spawn t ?name body =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let cap = Array.length t.parked in
  if pid >= cap then begin
    let ncap = max (pid + 1) (2 * cap) in
    let nparked = Array.make ncap false in
    Array.blit t.parked 0 nparked 0 cap;
    t.parked <- nparked;
    let nnames = Array.make ncap "" in
    Array.blit t.names 0 nnames 0 cap;
    t.names <- nnames;
    let nwhys = Array.make ncap "" in
    Array.blit t.whys 0 nwhys 0 cap;
    t.whys <- nwhys;
    let nwaits = Array.make ncap (-1) in
    Array.blit t.waits 0 nwaits 0 cap;
    t.waits <- nwaits
  end;
  (match name with Some n -> t.names.(pid) <- n | None -> ());
  t.live <- t.live + 1;
  if Obs.tracing t.obs then begin
    Obs.set_lane t.obs pid (name_of t pid);
    Obs.instant t.obs ~lane:pid ~name:"spawn" ~ts_ns:t.clock.time ()
  end;
  ignore (at t t.clock.time (fun () -> start t pid body) : handle);
  pid

(* Build the structured stall report: every parked process with its
   recorded reason, plus one cycle of the wait-for graph if there is
   one. The graph has out-degree <= 1 (each parked process waits on at
   most one pid), so a stamped walk from each unvisited node finds a
   cycle in linear time: revisiting a node carrying the current walk's
   stamp means the chain bit its own tail. *)
let stall_report t =
  let n = Array.length t.parked in
  let waiter_of pid =
    { wpid = pid;
      wname = name_of t pid;
      wwhy = (let w = t.whys.(pid) in if w = "" then "parked" else w);
      wwaits_on = t.waits.(pid);
    }
  in
  let waiters = ref [] in
  for pid = n - 1 downto 0 do
    if t.parked.(pid) then waiters := waiter_of pid :: !waiters
  done;
  let mark = Array.make n 0 in
  let stamp = ref 0 in
  let cycle = ref [] in
  List.iter
    (fun w ->
      if !cycle = [] && mark.(w.wpid) = 0 then begin
        incr stamp;
        let s = !stamp in
        let rec walk pid =
          if pid >= 0 && pid < n && t.parked.(pid) then begin
            if mark.(pid) = s then begin
              (* [pid] starts the cycle: follow the chain back around. *)
              let rec collect p acc =
                let acc = waiter_of p :: acc in
                let next = t.waits.(p) in
                if next = pid then List.rev acc else collect next acc
              in
              cycle := collect pid []
            end
            else if mark.(pid) = 0 then begin
              mark.(pid) <- s;
              walk t.waits.(pid)
            end
            (* A positive foreign stamp means this chain merges into one
               already explored without finding a cycle: stop. *)
          end
        in
        walk w.wpid
      end)
    !waiters;
  { waiters = !waiters; cycle = !cycle }

(* Run one decoded event: the value carries (arena slot, tag); the slot
   returns to the free stack before the payload runs, so the event's
   own pushes can reuse it. *)
let[@inline] exec_event t v =
  let slot = v lsr 1 in
  let payload = Array.unsafe_get t.slots slot in
  Array.unsafe_set t.free t.free_top slot;
  t.free_top <- t.free_top + 1;
  if v land 1 = 0 then
    Effect.Deep.continue (Obj.obj payload : (unit, unit) Effect.Deep.continuation) ()
  else (Obj.obj payload : unit -> unit) ()

(* Pop the queue's minimum and run it, until the queue drains. *)
let run t =
  let w = t.wheel in
  while not (Tw.is_empty w) do
    let pk = Tw.peek_pk w in
    t.clock.time <- Tw.time_of_key (Tw.peek_key w);
    Tw.pop w;
    exec_event t (pk land v_mask)
  done;
  if t.parked_count > 0 then raise (Stalled (stall_report t))

let live t = t.live

(* Snapshot scheduler counters into the recorder — called by the layer
   that owns the run (Machine.flush_observations), mirroring its
   discipline: everything here is maintained by the simulation anyway,
   so metering adds no hot-path cost. *)
let flush_observations t =
  if Obs.metering t.obs then begin
    Obs.set t.obs "sched.shard.pushes" t.next_seq;
    Obs.set t.obs "sched.shard.ring_hits" (Tw.ring_hits t.wheel);
    (* The queue has no wheel levels; the counter stays, at 0, until
       the sched.shard.* family is renamed with the benchmark that
       reads it. *)
    Obs.set t.obs "sched.shard.wheel_hits" 0;
    Obs.set t.obs "sched.shard.heap_spills" (Tw.heap_spills t.wheel);
    Obs.set t.obs "sched.shard.cancels" (Tw.removals t.wheel)
  end
