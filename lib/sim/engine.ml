module Obs = Mb_obs.Recorder

type pid = int

(* Pending events live in per-CPU {!Shard} queues merged by a
   deterministic (time, seq) frontier; see shard.ml. The engine stores
   each event's payload — a bare continuation for a suspended process,
   a thunk for [at]/[spawn] — in its own arena and files only a small
   integer with the queue:

       v = (arena slot lsl 1) lor tag      tag 1 = thunk, 0 = continuation

   The [Obj.t] arena replaces the old two-word [Thunk]/[Resume] variant
   around every event: the hot Delay path now allocates nothing beyond
   the runtime's continuation, and its only barriered store is parking
   the payload in its slot. The tag bit keeps the decode honest — it is
   the single source of truth for what each slot holds, and the only
   two writers ([at]/[spawn] vs the Delay/Park handlers) each stamp
   their own kind. *)

(* 2^slot_bits bounds the number of *pending* events. slot_bits + 1
   (the tag) must stay <= Shard.vbits. *)
let slot_bits = 20
let max_slots = 1 lsl slot_bits

type t = {
  clock : Pqueue.cell;  (* all-float cell: advancing the clock never boxes *)
  scratch : Pqueue.cell;  (* resume-time scratch for the Delay hot path *)
  queue : Shard.t;
  (* Shard of the event being executed: pushes without an explicit
     [~shard] inherit it, so a process's delays stay on the CPU shard
     that dispatched it and migrate naturally with the dispatch. *)
  mutable cur_shard : int;
  shard_names : string array;
  mutable cross_wakeups : int;  (* explicit pushes onto a foreign shard *)
  (* Head of the *drained plan* while a conservative window executes
     (see Mb_parallel.Conservative): events the executor has pulled out
     of the shard queues but not yet run. The delay fast path must
     treat them as still queued — [max_int] outside a window, so the
     serial engine pays one predictable compare. *)
  mutable plan_min_key : int;
  mutable plan_min_pk : int;
  (* Domain count a conservative run will use; > 1 makes park/unpark
     trace instants carry the owning domain alongside the shard. *)
  mutable domains : int;
  mutable domain_names : string array;  (* per *shard*: name of its domain *)
  (* Event payload arena + free-list stack (same discipline the old
     Pqueue arena used: popped slots are not cleared — the write costs
     more than the bounded retention it avoids — and are reused by the
     next push). *)
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

(* Constant-constructor twin of [Delay]: the duration travels through
   the engine's [scratch] cell instead of the effect value, so a
   perform allocates no effect block and no float box. This is the
   machine layer's hot path — see [delay_cell]/[delay_pending]. *)
type _ Effect.t += Tick : unit Effect.t

(* Constant-constructor twin of [Park] for engine-level pollers: the
   register callback travels through [pending_register] (a store, not
   an effect-block allocation), and the handler does none of Park's
   bookkeeping — no parked flags, no trace instants. The resume it
   hands out re-enters the process with a direct [continue], so it must
   be called exactly once, from an event context (a queued thunk). *)
type _ Effect.t += Suspend : unit Effect.t

let create ?(obs = Obs.null) ?(shards = 1) () =
  { clock = Pqueue.make_cell ();
    scratch = Pqueue.make_cell ();
    queue = Shard.create ~shards;
    cur_shard = 0;
    shard_names = Array.init shards string_of_int;
    cross_wakeups = 0;
    plan_min_key = max_int;
    plan_min_pk = max_int;
    domains = 1;
    domain_names = [||];
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

let now t = t.clock.Pqueue.cell_time

let shards t = Shard.shards t.queue

let name_shard t i name = t.shard_names.(i) <- name

(* Record the domain count of the conservative run that will drive this
   engine: shard [i] belongs to domain [i mod domains], and park/unpark
   trace instants gain a "domain" argument so trace lanes carry domain
   ids. Purely observational — the schedule never depends on it. *)
let set_domains t domains =
  if domains < 1 then invalid_arg "Engine.set_domains: domains < 1";
  t.domains <- domains;
  t.domain_names <-
    (if domains > 1 then
       Array.init (Array.length t.shard_names) (fun i -> string_of_int (i mod domains))
     else [||])

let domains t = t.domains

let shard_args t =
  if t.domains > 1 then
    [ ("shard", t.shard_names.(t.cur_shard));
      ("domain", t.domain_names.(t.cur_shard)) ]
  else [ ("shard", t.shard_names.(t.cur_shard)) ]

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

(* --- scheduling entry points ------------------------------------------ *)

let push_thunk t sh time thunk =
  if time < t.clock.Pqueue.cell_time then invalid_arg "Engine.at: time in the past";
  if sh <> t.cur_shard then t.cross_wakeups <- t.cross_wakeups + 1;
  let slot = alloc_slot t (Obj.repr (thunk : unit -> unit)) in
  Shard.push_at t.queue ~shard:sh ~time ~v:((slot lsl 1) lor 1)

let at t ?shard time thunk =
  let sh = match shard with Some s -> s | None -> t.cur_shard in
  push_thunk t sh time thunk

(* Cancellation is lazy: the event stays queued and checks its armed
   flag when it fires, so cancelling is O(1) and the queue never
   learns about removal. The closure pair costs two small allocations —
   cancellable timers are cold compared to delays. *)
let at_cancel t ?shard time thunk =
  let armed = ref true in
  let sh = match shard with Some s -> s | None -> t.cur_shard in
  push_thunk t sh time (fun () -> if !armed then thunk ());
  fun () -> armed := false

let delay d = Effect.perform (Delay d)

let delay_cell t = t.scratch

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

   The comparison runs on integer time keys: the key image of floats
   is strictly monotone (see Pqueue), [Shard.min_key] is already a
   key, and [max_int] — the empty sentinel — is above every real key,
   so one branchless int compare covers the empty-queue case too. *)
let delay_pending t =
  let clock = t.clock.Pqueue.cell_time in
  let nt = clock +. t.scratch.Pqueue.cell_time in
  let key = Int64.to_int (Int64.bits_of_float nt) lxor min_int in
  if key < Shard.min_key t.queue && key < t.plan_min_key then begin
    if nt < clock then invalid_arg "Engine.delay: negative delay";
    t.clock.Pqueue.cell_time <- nt
  end
  else Effect.perform Tick

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
   engine's unboxed [scratch] cell ([Delay]) or the [pending_register]
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
      Obs.instant t.obs ~lane:pid ~name:"exit" ~ts_ns:t.clock.Pqueue.cell_time ()
  in
  let on_delay : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        (* scratch already holds clock + d (written by effc below). *)
        if t.scratch.Pqueue.cell_time < t.clock.Pqueue.cell_time then
          discontinue k (Invalid_argument "Engine.delay: negative delay")
        else begin
          let slot = alloc_slot t (Obj.repr k) in
          Shard.push t.queue ~shard:t.cur_shard t.scratch ~v:(slot lsl 1)
        end)
  in
  let on_park : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        let register = t.pending_register in
        t.pending_register <- no_register;
        set_parked t pid;
        if Obs.tracing t.obs then
          Obs.instant t.obs ~lane:pid ~name:"park" ~ts_ns:t.clock.Pqueue.cell_time
            ~args:(shard_args t) ();
        let resumed = ref false in
        let resume () =
          if !resumed then
            invalid_arg (Printf.sprintf "Engine: process %s resumed twice" (name_of t pid));
          resumed := true;
          clear_parked t pid;
          (* The continuation re-queues on the *waker's* shard: a
             cross-CPU wakeup thus lands in the mailbox of the CPU
             that issued it, and the frontier replays the global
             order. *)
          if Obs.tracing t.obs then
            Obs.instant t.obs ~lane:pid ~name:"unpark" ~ts_ns:t.clock.Pqueue.cell_time
              ~args:(shard_args t) ();
          let slot = alloc_slot t (Obj.repr k) in
          Shard.push t.queue ~shard:t.cur_shard t.clock ~v:(slot lsl 1)
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
     | Tick ->
         (* scratch holds the duration, written by the performer. *)
         t.scratch.Pqueue.cell_time <- t.clock.Pqueue.cell_time +. t.scratch.Pqueue.cell_time;
         on_delay
     | Delay d ->
         t.scratch.Pqueue.cell_time <- t.clock.Pqueue.cell_time +. d;
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

let spawn t ?name ?shard body =
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
    Obs.instant t.obs ~lane:pid ~name:"spawn" ~ts_ns:t.clock.Pqueue.cell_time ()
  end;
  let sh = match shard with Some s -> s | None -> t.cur_shard in
  push_thunk t sh t.clock.Pqueue.cell_time (fun () -> start t pid body);
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

(* Pop and run the frontier event. Pop writes the event time straight
   into the clock cell. *)
let step_queue t =
  let v = Shard.pop t.queue t.clock in
  t.cur_shard <- Shard.popped_shard t.queue;
  exec_event t v

let run t =
  let rec loop () =
    if Shard.is_empty t.queue then begin
      if t.parked_count > 0 then raise (Stalled (stall_report t))
    end
    else begin
      step_queue t;
      loop ()
    end
  in
  loop ()

(* --- conservative-window entry points (Mb_parallel.Conservative) ----- *)

let queue t = t.queue

let check_stall t = if t.parked_count > 0 then raise (Stalled (stall_report t))

let set_plan_min t ~key ~pk =
  t.plan_min_key <- key;
  t.plan_min_pk <- pk

let plan_min_key t = t.plan_min_key

(* Run an event the conservative executor drained out of the shard
   queues: restore the clock from its key, restore the shard it was
   filed on (pushes without an explicit shard inherit it, exactly as a
   popped event's would), and decode the payload value from the low
   bits of the packed tie-break. *)
let execute_planned t ~key ~pk ~shard =
  t.clock.Pqueue.cell_time <- Timing_wheel.time_of_key key;
  t.cur_shard <- shard;
  exec_event t (pk land ((1 lsl Shard.vbits) - 1))

let live t = t.live

(* Snapshot scheduler counters into the recorder — called by the layer
   that owns the run (Machine.flush_observations), mirroring its
   discipline: everything here is maintained by the simulation anyway,
   so metering adds no hot-path cost. *)
let flush_observations t =
  if Obs.metering t.obs then begin
    let n = Shard.shards t.queue in
    Obs.set t.obs "sched.shards" n;
    let total = ref 0 in
    for i = 0 to n - 1 do
      let p = Shard.shard_pushes t.queue i in
      total := !total + p;
      Obs.set t.obs (Printf.sprintf "sched.shard.%s.pushes" t.shard_names.(i)) p
    done;
    Obs.set t.obs "sched.shard.pushes" !total;
    Obs.set t.obs "sched.shard.ring_hits" (Shard.ring_hits t.queue);
    Obs.set t.obs "sched.shard.wheel_hits" (Shard.wheel_hits t.queue);
    Obs.set t.obs "sched.shard.heap_spills" (Shard.heap_spills t.queue);
    Obs.set t.obs "sched.shard.cross_wakeups" t.cross_wakeups
  end
