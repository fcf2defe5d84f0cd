module Engine = Mb_sim.Engine
module Coherence = Mb_cache.Coherence
module As = Mb_vm.Address_space
module Rng = Mb_prng.Rng
module Obs = Mb_obs.Recorder
module Check = Mb_check.Checker
module Fault = Mb_fault.Injector

type config = {
  cpus : int;
  mhz : float;
  quantum_us : float;
  ctx_switch_cycles : int;
  atomic_cycles : int;
  stub_lock_cycles : int;
  spin_cycles : int;
  mutex_handoff : bool;
  wake_cycles : int;
  syscall_cycles : int;
  vm_syscalls_take_bkl : bool;
  minor_fault_cycles : int;
  thread_spawn_cycles : int;
  op_jitter : float;
  cache : Coherence.config;
  vm : As.config;
}

let default_config =
  { cpus = 2;
    mhz = 200.;
    quantum_us = 2000.;
    ctx_switch_cycles = 900;
    atomic_cycles = 14;
    stub_lock_cycles = 2;
    spin_cycles = 400;
    mutex_handoff = false;
    wake_cycles = 300;
    syscall_cycles = 800;
    vm_syscalls_take_bkl = true;
    minor_fault_cycles = 900;
    thread_spawn_cycles = 1500;
    op_jitter = 0.02;
    cache = Coherence.default_config;
    vm = As.linux_x86;
  }

type thread_state = Starting | Ready | Running | Blocked | Finished

(* All-float record: its fields are stored unboxed, so the scheduler's
   per-slice updates (busy time) write a raw double instead of
   allocating a fresh box, which a float field in the mixed record below
   would do on every assignment. The cycle time lives here too, so it
   needs no box of its own. *)
type machine_hot = { mutable busy : float; cycle_ns : float }

type t = {
  config : config;
  engine : Engine.t;
  cache : Coherence.t;
  root_rng : Rng.t;
  probe_g : int;  (* [low_bit_exp] of a full probe step, [8. *. cycle_ns] *)
  mutable spin_walked : int;  (* probe boundaries the lazy spin path still
                                 walked one addition at a time *)
  quantum_cycles : float;
  cpus : cpu array;
  ready : thread Queue.t;
  mutable next_tid : int;
  mutable next_asid : int;
  mutable ctx_switches : int;
  mh : machine_hot;
  mutable bkl : mutex option;  (* the 2.2-era big kernel lock guarding VM
                                  syscalls (paper section 3); lazy *)
  obs : Obs.t;
  check : Check.t;
  check_on : bool;  (* Check.armed check, cached: the memory hot paths
                       branch on an immutable bool field instead of a
                       load through the checker record *)
  fault : Fault.t;
  fault_on : bool;  (* Fault.armed fault, cached like [check_on]: the
                       reservation/lock sites branch on an immutable
                       bool, so faults-off runs are byte-identical *)
  mutable next_mid : int;  (* machine-unique mutex ids for the checker's
                              lockset bookkeeping *)
  mutable mutexes : mutex list;  (* every mutex ever created on this
                                    machine, so the end-of-run metrics
                                    flush can report per-lock counts *)
  mutable sbrk_calls : int;
  mutable mmap_calls : int;
  mutable munmap_calls : int;
}

and cpu = { cpu_id : int; mutable current : thread option }

and mutex = {
  mname : string;
  mid : int;  (* machine-unique id, the checker's lockset element *)
  mblocked : string;  (* "blocked on mutex <name>", precomputed so the
                         contended path's Engine.set_wait concatenates
                         nothing *)
  mm : t;
  heap_lock : bool;  (* allocator heap lock, for the aggregated
                        contended-vs-uncontended metrics split *)
  mutable owner : thread option;  (* the owner's [tsome], never a fresh [Some] *)
  waiters : thread Queue.t;
  mutable spinners : spinner array;  (* [0, nspinners): the suspended
                                        spin-wait registrations, in
                                        spin-entry order; the release
                                        sites drive their wake-ups *)
  mutable nspinners : int;
  mutable contentions : int;
  mutable acquisitions : int;
}

(* A thread's spin-wait registration, built at its first spin in
   [spin_on]'s poller branch and reused by every later one. [srem] is
   the spin cycles still budgeted past the last probe boundary already
   accounted; that boundary's time is [sth.hot.spin_base]. Probe
   boundaries are materialized lazily — see the big comment at
   [spin_on]. The wake, expiry and register closures are built once
   with the registration, so a spin allocates none. *)
and spinner = {
  sth : thread;
  mutable smu : mutex;  (* the mutex of the current (or last) spin *)
  mutable srem : int;
  mutable sexpire : Engine.handle;  (* the current spin's expiry event;
                                       [no_event] once the spin is over *)
  mutable swake : Engine.handle;  (* the wake event queued at the next
                                     boundary, so release sites queue no
                                     second one; [no_event] when none *)
  mutable sresume : unit -> unit;  (* the engine's per-process resume *)
  mutable wake_ev : unit -> unit;
  mutable expire_ev : unit -> unit;
  mutable register : (unit -> unit) -> unit;
}

and proc = {
  pname : string;
  pasid : int;  (* address-space id: distinguishes equal virtual addresses
                   of different processes in the physically-indexed cache *)
  pm : t;
  pvm : As.t;
  prng : Rng.t;
  mutable live_threads : int;
  mutable ever_multi : bool;
}

(* The per-thread floats the scheduler touches on every dispatch, time
   slice and memory access live in their own all-float record: a float
   field in [thread] itself (a mixed record) is boxed, and each
   [th.cpu_cycles <- ...] would allocate. Split out, every update is an
   unboxed store. *)
and thread_hot = {
  mutable quantum_left : float;
  spawn_ns : float;
  mutable finish_ns : float;
  mutable cpu_cycles : float;
  mutable run_start_ns : float;  (* dispatch time of the current CPU tenure *)
  mutable spin_base : float;  (* the spinner's last accounted probe boundary *)
}

and thread = {
  tid : int;
  mutable tname : string;  (* "" until someone asks; see [thread_name] *)
  tproc : proc;
  trng : Rng.t;
  mutable tsome : thread option;  (* [Some] of this thread, built once at
                                     spawn: mutex owners and CPU slots
                                     store it instead of allocating *)
  mutable tspin : spinner option;  (* set at the thread's first spin *)
  mutable state : thread_state;
  mutable resume : unit -> unit;  (* == no_resume while not parked *)
  mutable park_register : (unit -> unit) -> unit;
      (* preallocated closure handed to Engine.park, so parking for a
         CPU allocates nothing in the scheduler *)
  mutable sleep_wake : unit -> unit;
      (* [sleep_until]'s timer event, built at the thread's first sleep
         (not at spawn: most threads never sleep) and reused by every
         later one *)
  mutable on_cpu : int;  (* valid while Running *)
  hot : thread_hot;
  mutable switches : int;
  mutable blocks : int;
  mutable spin_wins : int;
  mutable faults : int;
  mutable stack_addr : int;
  mutable hooks : (unit -> unit) list;
  joiners : thread Queue.t;
  mutable lane : int;  (* engine pid: this thread's trace lane *)
}

type ctx = thread

type thread_stats = {
  cpu_cycles : float;
  ctx_switches : int;
  blocks : int;
  spins : int;
  page_faults : int;
}

(* Sentinel for "no stored resume": physical comparison against this
   shared closure replaces the [option] box a park used to allocate. *)
let no_resume : unit -> unit = fun () -> ()

let no_register : (unit -> unit) -> unit = fun _ -> ()

let thread_stack_bytes = 16 * 1024

(* --- exact jumps over probe steps --------------------------------------- *)

(* A spin's probe boundary and its cycle counters are float
   accumulators the probe chain steps one addition at a time: x +. d,
   then again. [x +. float k *. d] jumps k steps with one rounding, and
   equals the chain's result bit for bit when every partial sum
   x + i*d is exact. That holds when x is normal with biased exponent
   E, d is a multiple of ulp(x) = 2^(E-1075), and the jump lands in x's
   binade: every partial sum then lies between x and the result, in
   that binade, on its ulp grid. Testing the rounded result suffices,
   since a true sum outside the binade rounds outside it too. Anything
   else — zero or subnormal x, a binade crossing, a step with bits
   below ulp(x) such as a non-dyadic cycle time — walks the steps. *)

(* Biased exponent of [x], sign bit included: in 1..2046 exactly when
   [x] is positive and normal. *)
let[@inline] biased_exp x = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52)

let rec ctz m n = if m land 1 = 1 then n else ctz (m lsr 1) (n + 1)

(* [g] such that [d = odd * 2^g], for finite nonzero [d]; [min_int]
   otherwise, which no jump passes. Inlined, so [d] is not boxed. *)
let[@inline] low_bit_exp d =
  let bits = Int64.bits_of_float d in
  let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let frac = Int64.to_int bits land ((1 lsl 52) - 1) in
  if e = 0x7ff || (e = 0 && frac = 0) then min_int
  else begin
    (* |d| = mant * 2^(max e 1 - 1075), subnormals included *)
    let mant = if e = 0 then frac else frac lor (1 lsl 52) in
    max e 1 - 1075 + ctz mant 0
  end

(* [low_bit_exp] of the cycle counters' step, 8. (and -8.) *)
let cycle_step_g = 3

(* Whether [y], computed as [x +. float k *. d] with [low_bit_exp d =
   g], is [k] rounded additions of [d] to [x] (see above). *)
let[@inline] jump_is_exact x g y =
  let e = biased_exp x in
  e >= 1 && e <= 2046 && g >= e - 1075 && biased_exp y = e

let exact_jump x d k =
  let y = x +. (float_of_int k *. d) in
  if jump_is_exact x (low_bit_exp d) y then Some y else None

let create ?(seed = 42) (config : config) =
  if config.cpus <= 0 then invalid_arg "Machine.create: cpus <= 0";
  if config.mhz <= 0. then invalid_arg "Machine.create: mhz <= 0";
  if not (Float.is_finite config.mhz) then invalid_arg "Machine.create: mhz not finite";
  (* A zero quantum never lets [consume] make progress, a negative one
     schedules into the past, and a NaN one poisons the clock. *)
  if not (config.quantum_us > 0. && Float.is_finite config.quantum_us) then
    invalid_arg "Machine.create: quantum_us must be positive and finite";
  (* [work] scales its cycles by a factor drawn from [1 - op_jitter,
     1 + op_jitter): a NaN or infinite jitter makes every jittered item
     free, and one of 1 or more draws factors <= 0, whose items are
     dropped. A negative cost is skipped like a zero one (or, for a
     context switch, schedules into the past). *)
  if not (config.op_jitter >= 0. && config.op_jitter < 1.) then
    invalid_arg "Machine.create: op_jitter must be finite and in [0, 1)";
  let nonneg field cycles =
    if cycles < 0 then invalid_arg (Printf.sprintf "Machine.create: %s < 0" field)
  in
  nonneg "ctx_switch_cycles" config.ctx_switch_cycles;
  nonneg "atomic_cycles" config.atomic_cycles;
  nonneg "stub_lock_cycles" config.stub_lock_cycles;
  nonneg "spin_cycles" config.spin_cycles;
  nonneg "wake_cycles" config.wake_cycles;
  nonneg "syscall_cycles" config.syscall_cycles;
  nonneg "minor_fault_cycles" config.minor_fault_cycles;
  nonneg "thread_spawn_cycles" config.thread_spawn_cycles;
  let cycle_ns = 1000. /. config.mhz in
  let arm = Arm.current () in
  let obs =
    if arm.trace || arm.metrics then Obs.create ~trace:arm.trace ~metrics:arm.metrics ()
    else Obs.null
  in
  let check = if arm.check then Check.create () else Check.null in
  let fault =
    match arm.faults with None -> Fault.null | Some (plan, seed) -> Fault.create ~plan ~seed
  in
  { config;
    engine = Engine.create ~obs ();
    cache = Coherence.create config.cache ~cpus:config.cpus;
    root_rng = Rng.create ~seed;
    probe_g = low_bit_exp (8. *. cycle_ns);
    spin_walked = 0;
    quantum_cycles = config.quantum_us *. 1000. /. cycle_ns;
    cpus = Array.init config.cpus (fun cpu_id -> { cpu_id; current = None });
    ready = Queue.create ();
    next_tid = 0;
    next_asid = 0;
    ctx_switches = 0;
    mh = { busy = 0.; cycle_ns };
    bkl = None;
    obs;
    check;
    check_on = Check.armed check;
    fault;
    fault_on = Fault.armed fault;
    next_mid = 0;
    mutexes = [];
    sbrk_calls = 0;
    mmap_calls = 0;
    munmap_calls = 0;
  }

let config t = t.config

let engine t = t.engine

let cache t = t.cache

let rng t = t.root_rng

let observer t = t.obs

let cycles_to_ns t c = c *. t.mh.cycle_ns

(* Snapshot machine-wide counters into the recorder once the run is
   over: cache-coherence traffic, scheduling, VM syscalls, and one
   acquired/contended pair per mutex name. All are [set]/summed from
   counters the simulation maintains anyway, so observation adds no
   hot-path cost beyond the disabled-recorder branches. *)
let flush_observations t =
  if Obs.metering t.obs then begin
    Obs.set t.obs "cache.hits" (Coherence.hits t.cache);
    Obs.set t.obs "cache.misses" (Coherence.misses t.cache);
    Obs.set t.obs "cache.line_transfers" (Coherence.transfers t.cache);
    Obs.set t.obs "cache.upgrades" (Coherence.upgrades t.cache);
    Obs.set t.obs "cache.invalidations" (Coherence.invalidations t.cache);
    Obs.set t.obs "sched.ctx_switches" t.ctx_switches;
    Obs.set t.obs "sched.spin_steps_walked" t.spin_walked;
    Obs.set t.obs "vm.sbrk_calls" t.sbrk_calls;
    Obs.set t.obs "vm.mmap_calls" t.mmap_calls;
    Obs.set t.obs "vm.munmap_calls" t.munmap_calls;
    if t.fault_on then begin
      Obs.set t.obs "fault.injected" (Fault.injected t.fault);
      Obs.set t.obs "fault.injected_reserve" (Fault.injected_reserve t.fault);
      Obs.set t.obs "fault.injected_preempt" (Fault.injected_preempt t.fault);
      Obs.set t.obs "fault.injected_slowlock" (Fault.injected_slowlock t.fault);
      Obs.set t.obs "fault.survived" (Fault.survived t.fault);
      Obs.set t.obs "fault.degraded" (Fault.degraded t.fault)
    end;
    (* Mutex names repeat across processes (each process-private ptmalloc
       has its own "arena-0"), so sum per name before writing. *)
    let acc = Hashtbl.create 16 in
    let bump key n =
      Hashtbl.replace acc key (n + (match Hashtbl.find_opt acc key with Some v -> v | None -> 0))
    in
    List.iter
      (fun mu ->
        if mu.acquisitions > 0 || mu.contentions > 0 then begin
          bump ("lock." ^ mu.mname ^ ".acquired") mu.acquisitions;
          bump ("lock." ^ mu.mname ^ ".contended") mu.contentions;
          if mu.heap_lock then begin
            bump "alloc.lock.acquired" mu.acquisitions;
            bump "alloc.lock.contended" mu.contentions;
            bump "alloc.lock.uncontended" (max 0 (mu.acquisitions - mu.contentions))
          end
        end)
      t.mutexes;
    Hashtbl.iter (fun key v -> Obs.set t.obs key v) acc
  end;
  Engine.flush_observations t.engine

let run t =
  Engine.run t.engine;
  flush_observations t

let now_ns t = Engine.now t.engine

let total_ctx_switches (t : t) = t.ctx_switches

let busy_cycles t = t.mh.busy

let kernel_lock_contentions t = match t.bkl with Some mu -> mu.contentions | None -> 0

(* --- thread names ----------------------------------------------------- *)

(* Default names ("<proc>/t<tid>") are materialized on first use — an
   error message, a trace lane — so unobserved runs never pay the
   Printf or the string allocation. *)
let thread_name th =
  if th.tname = "" then begin
    let n = Printf.sprintf "%s/t%d" th.tproc.pname th.tid in
    th.tname <- n;
    n
  end
  else th.tname

(* --- scheduler ------------------------------------------------------- *)

(* Give an idle CPU to the first ready thread, paying the switch cost as
   CPU-busy time before the thread's continuation fires. *)
let dispatch m cpu =
  match cpu.current with
  | Some _ -> ()
  | None ->
      if not (Queue.is_empty m.ready) then begin
        let th = Queue.take m.ready in
        cpu.current <- th.tsome;
        th.state <- Running;
        th.on_cpu <- cpu.cpu_id;
        (* The first timer tick after a switch lands at a random phase of
           the quantum, as hardware timer interrupts do. *)
        th.hot.quantum_left <- m.quantum_cycles *. (0.5 +. (0.5 *. Rng.float m.root_rng 1.0));
        th.switches <- th.switches + 1;
        m.ctx_switches <- m.ctx_switches + 1;
        let switch = float_of_int m.config.ctx_switch_cycles in
        m.mh.busy <- m.mh.busy +. switch;
        th.hot.cpu_cycles <- th.hot.cpu_cycles +. switch;
        let resume = th.resume in
        if resume == no_resume then
          invalid_arg "Machine: dispatching a thread that never parked";
        th.resume <- no_resume;
        let now = Engine.now m.engine in
        th.hot.run_start_ns <- now;
        ignore (Engine.at m.engine (now +. cycles_to_ns m switch) resume : Engine.handle)
      end

let kick m = Array.iter (fun cpu -> dispatch m cpu) m.cpus

let park_for_cpu th = Engine.park th.park_register

(* Release the CPU this thread is running on and let the scheduler hand it
   to someone else. Caller decides where the thread itself goes. *)
let release_cpu m th =
  if th.on_cpu < 0 || th.on_cpu >= Array.length m.cpus then
    invalid_arg (Printf.sprintf "Machine.release_cpu: thread %s has no CPU (state?)" (thread_name th));
  let cpu = m.cpus.(th.on_cpu) in
  (match cpu.current with
  | Some cur when cur == th -> cpu.current <- None
  | Some _ | None -> invalid_arg "Machine: thread releasing a CPU it does not hold");
  if Obs.tracing m.obs then begin
    Obs.span m.obs ~lane:th.lane ~name:"run" ~ts_ns:th.hot.run_start_ns
      ~dur_ns:(Engine.now m.engine -. th.hot.run_start_ns)
      ~args:[ ("cpu", string_of_int cpu.cpu_id) ]
      ()
  end;
  dispatch m cpu

let make_ready m th =
  th.state <- Ready;
  Queue.push th m.ready;
  kick m

(* Quantum expiry with other work waiting: back of the ready queue. *)
let preempt m th =
  th.state <- Ready;
  Queue.push th m.ready;
  Engine.set_wait m.engine th.lane ~why:"waiting for a cpu" ~waits_on:(-1);
  release_cpu m th;
  park_for_cpu th

(* Charge [c] cycles that fit in the running quantum ([0 < c <= q], [q]
   the quantum left): one [Engine.delay_pending], the cycle accounting,
   and a refresh or preemption when the quantum ran out exactly. This
   runs for every simulated work item, lock operation and memory
   access. Inlined into each caller, so [c] and [q] stay local unboxed
   floats: passed to a real call, each would be boxed. *)
let[@inline] charge th m c q =
  Engine.delay_pending m.engine (c *. m.mh.cycle_ns);
  th.hot.cpu_cycles <- th.hot.cpu_cycles +. c;
  m.mh.busy <- m.mh.busy +. c;
  let q' = q -. c in
  th.hot.quantum_left <- q';
  if q' <= 0. then begin
    if Queue.is_empty m.ready then th.hot.quantum_left <- m.quantum_cycles
    else preempt m th
  end

(* Consume CPU cycles, honoring quantum-based round-robin preemption.
   Being recursive, [consume] is never inlined, so its float argument is
   boxed at every call: the per-operation callers below test the common
   case — the cycles fit in the quantum — themselves and [charge]
   directly, calling here only for the rare quantum-boundary path (a
   handful of context switches per million cycles). *)
let rec consume th cycles =
  if cycles > 0. then begin
    let m = th.tproc.pm in
    let q = th.hot.quantum_left in
    if cycles <= q then charge th m cycles q
    else begin
      Engine.delay_pending m.engine (q *. m.mh.cycle_ns);
      th.hot.cpu_cycles <- th.hot.cpu_cycles +. q;
      m.mh.busy <- m.mh.busy +. q;
      th.hot.quantum_left <- 0.;
      if Queue.is_empty m.ready then th.hot.quantum_left <- m.quantum_cycles
      else preempt m th;
      consume th (cycles -. q)
    end
  end

let find_idle_cpu m =
  let n = Array.length m.cpus in
  let rec scan i =
    if i >= n then None
    else
      match m.cpus.(i).current with
      | None -> Some m.cpus.(i)
      | Some _ -> scan (i + 1)
  in
  scan 0

(* First scheduling of a brand-new thread. *)
let acquire_cpu_initial m th =
  match find_idle_cpu m with
  | Some cpu ->
      cpu.current <- th.tsome;
      th.state <- Running;
      th.on_cpu <- cpu.cpu_id;
      th.hot.run_start_ns <- Engine.now m.engine;
      th.hot.quantum_left <- m.quantum_cycles *. (0.5 +. (0.5 *. Rng.float m.root_rng 1.0));
      th.switches <- th.switches + 1;
      m.ctx_switches <- m.ctx_switches + 1;
      let switch = float_of_int m.config.ctx_switch_cycles in
      m.mh.busy <- m.mh.busy +. switch;
      th.hot.cpu_cycles <- th.hot.cpu_cycles +. switch;
      Engine.delay (cycles_to_ns m switch)
  | None ->
      th.state <- Ready;
      Queue.push th m.ready;
      Engine.set_wait m.engine th.lane ~why:"waiting for a cpu" ~waits_on:(-1);
      park_for_cpu th

(* Integer-cycle entry point for the fixed-cost callers (lock ops,
   cache penalties, syscalls, faults). *)
let work_exact_cycles th cycles =
  if cycles > 0 then begin
    let fc = float_of_int cycles in
    let q = th.hot.quantum_left in
    if fc <= q then charge th th.tproc.pm fc q else consume th fc
  end

(* --- mutex mechanics (shared by Mutex and the kernel lock) ---------- *)

let mutex_make ?(heap = false) mm mname =
  let mid = mm.next_mid in
  mm.next_mid <- mid + 1;
  let mu =
    { mname;
      mid;
      mblocked = "blocked on mutex " ^ mname;
      mm;
      heap_lock = heap;
      owner = None;
      waiters = Queue.create ();
      spinners = [||];
      nspinners = 0;
      contentions = 0;
      acquisitions = 0;
    }
  in
  mm.mutexes <- mu :: mm.mutexes;
  mu

let note_acquired mu th =
  if mu.mm.check_on then
    Check.lock_acquired mu.mm.check ~tid:th.tid ~mid:mu.mid ~name:mu.mname

let note_released mu th =
  if mu.mm.check_on then Check.lock_released mu.mm.check ~tid:th.tid ~mid:mu.mid

let lock_op_cost th =
  let cfg = th.tproc.pm.config in
  if th.tproc.ever_multi then cfg.atomic_cycles else cfg.stub_lock_cycles

let mutex_try_lock mu th =
  work_exact_cycles th (lock_op_cost th);
  match mu.owner with
  | None ->
      mu.owner <- th.tsome;
      mu.acquisitions <- mu.acquisitions + 1;
      note_acquired mu th;
      true
  | Some _ ->
      mu.contentions <- mu.contentions + 1;
      false

(* Spin-poll the lock word every 8 cycles until it looks free or the
   budget runs out; each probe is one simulated work item. Top-level so
   the recursion is a direct call, not a per-spin closure. *)
let rec spin_on_steps mu th budget =
  if budget > 0 && (match mu.owner with Some _ -> true | None -> false) then begin
    let step = if budget < 8 then budget else 8 in
    work_exact_cycles th step;
    spin_on_steps mu th (budget - step)
  end

(* The probes must land at exactly the simulated times the step loop
   above produces, but between two changes of [mu.owner] every probe is
   a no-op: it reads a word nothing wrote, accounts its cycles and
   re-arms. Owner changes only happen inside event executions, and the
   release sites are known — so instead of one queued event per 8-cycle
   step (under heavy contention ~90% of all events in the simulator),
   the thread suspends once, registers on the mutex, and the *release*
   site schedules its wake at the exact probe boundary that would have
   observed the release. Boundary times are reproduced bit-for-bit by
   the same float arithmetic the chain used (t += float step *. cycle_ns),
   walked one step at a time or, where that is provably exact, jumped
   over many steps in one rounding (see [jump_is_exact]). The elided no-op
   probes' cycle accounting is applied the same way when a boundary is
   materialized — nothing reads a suspended spinner's counters in
   between, so the laziness is invisible. One up-front event at the
   budget-exhaustion boundary bounds the spin when the lock is never
   released (or is handed off directly and never reads None).

   Schedule neutrality: a wake pushed from the releasing event gets its
   sequence number during that event's execution, before anything the
   releaser subsequently pushes and after everything already queued —
   exactly the relative order the surviving probe's push had in the
   chain (its predecessors executed in a window where no other event
   ran). Same-phase spinners on one mutex wake in registration order,
   which is the order their chains interleaved. A probe boundary that
   ties the releasing event's time exactly wakes at that same time: in
   the chain, the probe's push (8 cycles earlier) always followed the
   releaser's own wake-up push (≥ lock-op cost ≡ 14 cycles earlier), so
   the tied probe ran after the release and observed it.

   Each materialized probe replicates [work_exact_cycles]'s fast
   branch: account the cycles, then decide. The 64-cycle slack in the
   entry guard keeps the quantum strictly positive through every probe,
   so the fast branch is exact (no preempt, no quantum refresh); the
   rare spin that straddles a quantum boundary takes the step loop,
   which handles preemption.

   A thread reuses one registration for all its spins, so a finished
   spin leaves nothing queued: a spin that a release ends cancels its
   expiry, and a spin that expires cancels the wake left at its final
   boundary. Every event a registration has queued therefore belongs
   to its current spin. Left queued, either event would only run as a
   no-op, so cancelling it moves no probe; it changes the engine's
   final clock alone, which no longer lands on such a leftover after
   the last thread's finish. *)

let[@inline] spin_step_account th m fc =
  th.hot.cpu_cycles <- th.hot.cpu_cycles +. fc;
  m.mh.busy <- m.mh.busy +. fc;
  th.hot.quantum_left <- th.hot.quantum_left -. fc

(* Materialize every probe boundary strictly before now: each one is a
   no-op probe the chain would have run, so account its step and
   advance the phase. A boundary exactly at now stays pending — a
   release at that time is observed *by* that probe (see above). All
   but the last one or two of those steps are taken in one jump when
   it is exact for the boundary and all three cycle counters, or not
   at all; the walk below materializes the rest, so it alone decides
   where the catch-up stops. The clock is read here, not passed: a
   float argument to a call that is not inlined is boxed. *)
let spin_advance m sp =
  let th = sp.sth in
  let h = th.hot in
  let t_lim = Engine.now m.engine in
  let full = sp.srem / 8 in
  let d = 8. *. m.mh.cycle_ns in
  let n = (t_lim -. h.spin_base) /. d in
  if full > 0 && n >= 2. then begin
    (* floor n - 1 full steps, whose last boundary lies before now up to
       the quotient's rounding; the [< t_lim] test settles that. *)
    let j = if n >= float_of_int (full + 1) then full else int_of_float n - 1 in
    let fj = float_of_int j in
    let base = h.spin_base +. (fj *. d) in
    let fc = fj *. 8. in
    let cycles = h.cpu_cycles +. fc and busy = m.mh.busy +. fc and q = h.quantum_left -. fc in
    if
      base < t_lim
      && jump_is_exact h.spin_base m.probe_g base
      && jump_is_exact h.cpu_cycles cycle_step_g cycles
      && jump_is_exact m.mh.busy cycle_step_g busy
      && jump_is_exact h.quantum_left cycle_step_g q
    then begin
      h.spin_base <- base;
      h.cpu_cycles <- cycles;
      m.mh.busy <- busy;
      h.quantum_left <- q;
      sp.srem <- sp.srem - (8 * j)
    end
  end;
  let continue_ = ref true in
  while !continue_ && sp.srem > 0 do
    let step = if sp.srem < 8 then sp.srem else 8 in
    let fc = float_of_int step in
    let nxt = h.spin_base +. (fc *. m.mh.cycle_ns) in
    if nxt < t_lim then begin
      spin_step_account th m fc;
      h.spin_base <- nxt;
      sp.srem <- sp.srem - step;
      m.spin_walked <- m.spin_walked + 1
    end
    else continue_ := false
  done

(* Retire the current spin: unregister it, keeping the other spinners
   in entry order, and re-enter the thread. The caller has already
   dealt with the spin's expiry and wake. *)
let spin_finish sp =
  let mu = sp.smu in
  let a = mu.spinners and n = mu.nspinners in
  let i = ref 0 in
  while a.(!i) != sp do
    incr i
  done;
  Array.blit a (!i + 1) a !i (n - !i - 1);
  mu.nspinners <- n - 1;
  sp.sresume ()

(* Wake event at one probe boundary: account this probe's step, then
   decide exactly as the chain's probe did — keep spinning (silently:
   the next release or the exhaustion event drives the next wake),
   or cancel the spin's expiry and re-enter the thread. *)
let spin_wake sp =
  assert (sp.sexpire != Engine.no_event);
  sp.swake <- Engine.no_event;
  let mu = sp.smu in
  let m = mu.mm in
  let th = sp.sth in
  let step = if sp.srem < 8 then sp.srem else 8 in
  spin_step_account th m (float_of_int step);
  th.hot.spin_base <- Engine.now m.engine;
  sp.srem <- sp.srem - step;
  if sp.srem > 0 && (match mu.owner with Some _ -> true | None -> false)
  then ()
  else begin
    Engine.cancel m.engine sp.sexpire;
    sp.sexpire <- Engine.no_event;
    spin_finish sp
  end

(* Up-front event at the final probe boundary: no release resumed the
   spinner first, so materialize the remaining no-op probes, cancel a
   wake queued at this same boundary, and re-enter the thread with the
   budget exhausted. *)
let spin_expire sp =
  assert (sp.sexpire != Engine.no_event);
  sp.sexpire <- Engine.no_event;
  let m = sp.smu.mm in
  let th = sp.sth in
  spin_advance m sp;
  spin_step_account th m (float_of_int sp.srem);
  th.hot.spin_base <- Engine.now m.engine;
  sp.srem <- 0;
  if sp.swake != Engine.no_event then begin
    Engine.cancel m.engine sp.swake;
    sp.swake <- Engine.no_event
  end;
  spin_finish sp

(* Release hook, called right after [mu.owner <- None]: catch every
   registration up to now (all skipped boundaries were no-op probes —
   the lock was held through them) and queue its wake at the first
   boundary that observes the release. [swake] dedupes: a still-pending
   wake already lands on that exact boundary, because no boundary lies
   between two releases with no probe in between. *)
let wake_spinners mu =
  let m = mu.mm in
  for i = 0 to mu.nspinners - 1 do
    let sp = mu.spinners.(i) in
    spin_advance m sp;
    if sp.swake == Engine.no_event && sp.srem > 0 then begin
      let step = if sp.srem < 8 then sp.srem else 8 in
      sp.swake <-
        Engine.at m.engine (sp.sth.hot.spin_base +. (float_of_int step *. m.mh.cycle_ns)) sp.wake_ev
    end
  done

let spinner_of th mu =
  match th.tspin with
  | Some sp -> sp
  | None ->
      let sp =
        { sth = th;
          smu = mu;
          srem = 0;
          sexpire = Engine.no_event;
          swake = Engine.no_event;
          sresume = no_resume;
          wake_ev = no_resume;
          expire_ev = no_resume;
          register = no_register;
        }
      in
      sp.wake_ev <- (fun () -> spin_wake sp);
      sp.expire_ev <- (fun () -> spin_expire sp);
      sp.register <- (fun resume -> sp.sresume <- resume);
      th.tspin <- Some sp;
      sp

(* Spin on a held mutex for the machine's spin budget. *)
let spin_on mu th =
  let m = mu.mm in
  let budget = m.config.spin_cycles in
  if budget > 0 && (match mu.owner with Some _ -> true | None -> false) then begin
    if float_of_int (budget + 64) >= th.hot.quantum_left then spin_on_steps mu th budget
    else begin
      let sp = spinner_of th mu in
      (* The previous spin left nothing queued. *)
      assert (sp.sexpire == Engine.no_event && sp.swake == Engine.no_event);
      sp.smu <- mu;
      sp.srem <- budget;
      th.hot.spin_base <- Engine.now m.engine;
      let n = mu.nspinners in
      if n = Array.length mu.spinners then begin
        let a = Array.make (max 4 (2 * n)) sp in
        Array.blit mu.spinners 0 a 0 n;
        mu.spinners <- a
      end;
      mu.spinners.(n) <- sp;
      mu.nspinners <- n + 1;
      (* Budget-exhaustion boundary: the chain's [budget / 8] full steps
         in one jump when it is exact, then the partial step (or every
         step) by the same iterated float arithmetic the probe chain
         accumulates. *)
      let x = th.hot.spin_base in
      let k = budget / 8 in
      let y = x +. (float_of_int k *. (8. *. m.mh.cycle_ns)) in
      let jumped = jump_is_exact x m.probe_g y in
      let t_end = ref (if jumped then y else x)
      and b = ref (if jumped then budget - (8 * k) else budget) in
      while !b > 0 do
        let step = if !b < 8 then !b else 8 in
        t_end := !t_end +. (float_of_int step *. m.mh.cycle_ns);
        b := !b - step;
        m.spin_walked <- m.spin_walked + 1
      done;
      sp.sexpire <- Engine.at m.engine !t_end sp.expire_ev;
      Engine.suspend m.engine sp.register
    end
  end

(* Contended path: spin (on SMP, if configured), then either race a CAS
   for a freed lock or block. Any time consumed between observing the
   lock free and retiring the CAS can lose the race to another spinner,
   hence the retry loop. *)
let rec mutex_lock_slow mu th =
  let m = mu.mm in
  if m.config.spin_cycles > 0 && m.config.cpus > 1 then
    spin_on mu th;
  match mu.owner with
  | None -> begin
      work_exact_cycles th (lock_op_cost th);
      match mu.owner with
      | None ->
          mu.owner <- th.tsome;
          th.spin_wins <- th.spin_wins + 1;
          mu.acquisitions <- mu.acquisitions + 1;
          note_acquired mu th
      | Some _ -> mutex_lock_slow mu th
    end
  | Some owner ->
      th.blocks <- th.blocks + 1;
      th.state <- Blocked;
      if Obs.tracing m.obs then
        Obs.instant m.obs ~lane:th.lane ~name:("block " ^ mu.mname)
          ~ts_ns:(Engine.now m.engine)
          ~args:[ ("cpu", string_of_int th.on_cpu) ]
          ();
      Engine.set_wait m.engine th.lane ~why:mu.mblocked ~waits_on:owner.lane;
      Queue.push th mu.waiters;
      release_cpu m th;
      park_for_cpu th;
      if m.config.mutex_handoff then begin
        (* Woken by direct handoff: we already own the mutex. *)
        mu.acquisitions <- mu.acquisitions + 1;
        note_acquired mu th
      end
      else begin
        (* Futex-style: we were merely woken; the lock may already be
           gone to a barging spinner. Re-compete. *)
        work_exact_cycles th (lock_op_cost th);
        match mu.owner with
        | None ->
            mu.owner <- th.tsome;
            mu.acquisitions <- mu.acquisitions + 1;
            note_acquired mu th
        | Some _ -> mutex_lock_slow mu th
      end

let mutex_lock mu th =
  (* preempt-storm: a seeded fraction of lock acquisitions take an extra
     context switch first, as if the quantum expired at the worst moment
     (the paper's convoy-formation trigger). Only when another thread is
     ready — [preempt] hands the CPU to the head of the ready queue. *)
  if
    mu.mm.fault_on
    && (not (Queue.is_empty mu.mm.ready))
    && Fault.preempt_now mu.mm.fault
  then preempt mu.mm th;
  work_exact_cycles th (lock_op_cost th);
  match mu.owner with
  | None ->
      mu.owner <- th.tsome;
      mu.acquisitions <- mu.acquisitions + 1;
      note_acquired mu th
  | Some _ ->
      mu.contentions <- mu.contentions + 1;
      mutex_lock_slow mu th

let mutex_unlock mu th =
  (match mu.owner with
  | Some cur when cur == th -> ()
  | Some _ | None -> invalid_arg "Mutex.unlock: not the owner");
  (* slow-lock: stretch a seeded fraction of heap-mutex hold times, so
     waiters pile up behind an owner that "went away" holding the lock. *)
  if mu.mm.fault_on && mu.heap_lock then begin
    let extra = Fault.stretch_cycles mu.mm.fault in
    if extra > 0 then work_exact_cycles th extra
  end;
  note_released mu th;
  work_exact_cycles th (lock_op_cost th);
  if Queue.is_empty mu.waiters then begin
    mu.owner <- None;
    if mu.nspinners > 0 then wake_spinners mu
  end
  else begin
    let w = Queue.take mu.waiters in
    if mu.mm.config.mutex_handoff then begin
      (* Direct handoff: the waiter owns the lock before it even runs,
         which is what produces lock convoys under heavy contention. *)
      mu.owner <- w.tsome;
      work_exact_cycles th mu.mm.config.wake_cycles;
      make_ready mu.mm w
    end
    else begin
      (* Barging: free the lock, wake the waiter, let it re-compete. *)
      mu.owner <- None;
      if mu.nspinners > 0 then wake_spinners mu;
      work_exact_cycles th mu.mm.config.wake_cycles;
      make_ready mu.mm w
    end
  end

(* The 2.2-era kernel serialized VM syscalls behind the big kernel lock
   (the paper patched sbrk to avoid it, mm/mmap.c in 2.3.5-2.3.7). *)
let kernel_lock m =
  match m.bkl with
  | Some mu -> mu
  | None ->
      let mu = mutex_make m "kernel-bkl" in
      m.bkl <- Some mu;
      mu

(* --- processes -------------------------------------------------------- *)

let libc_base = 0x4000_0000

let libc_bytes = 0x0010_0000

let libc_data_address = libc_base + 0x8000

let startup_pages = 12

let create_proc m ?name () =
  let pname = match name with Some n -> n | None -> Printf.sprintf "proc-%d" m.next_tid in
  let pvm = As.create m.config.vm in
  (* Text, data and libc occupy fixed mappings; program startup touches a
     handful of their pages — the constant term of benchmark 2's fault
     predictor. *)
  As.map_fixed pvm libc_base ~len:libc_bytes;
  let page = As.page_size pvm in
  ignore (As.touch pvm libc_base ~len:(startup_pages * page));
  let pasid = m.next_asid in
  m.next_asid <- pasid + 1;
  { pname; pasid; pm = m; pvm; prng = Rng.split m.root_rng; live_threads = 0; ever_multi = false }

let proc_vm p = p.pvm

let proc_machine p = p.pm

let proc_multithreaded p = p.ever_multi

let proc_name p = p.pname

(* --- thread lifecycle -------------------------------------------------- *)

let elapsed_ns th =
  if th.state <> Finished then invalid_arg "Machine.elapsed_ns: thread still running";
  th.hot.finish_ns -. th.hot.spawn_ns

let thread_stats (th : thread) : thread_stats =
  { cpu_cycles = th.hot.cpu_cycles;
    ctx_switches = th.switches;
    blocks = th.blocks;
    spins = th.spin_wins;
    page_faults = th.faults;
  }

let page_in th addr ~len =
  let m = th.tproc.pm in
  let faults = As.touch th.tproc.pvm addr ~len in
  if faults > 0 then begin
    th.faults <- th.faults + faults;
    work_exact_cycles th (faults * m.config.minor_fault_cycles)
  end

let work_exact = work_exact_cycles

(* Jittered work: the draw is inlined and the common case is charged
   inline, so a call allocates nothing. *)
let work th cycles =
  if cycles > 0 then begin
    let m = th.tproc.pm in
    let c = float_of_int cycles *. Rng.jitter th.trng m.config.op_jitter in
    let q = th.hot.quantum_left in
    if c > 0. && c <= q then charge th m c q else consume th c
  end

(* Reserve a thread stack, riding the fault layer's retry policy: a
   vetoed (or genuinely exhausted) reservation backs off in simulated
   time and tries again, so transiently flaky reservations survive.
   Returns [None] only once the retry budget is spent. *)
let rec map_stack m th p attempt =
  let r =
    if
      m.fault_on
      && Fault.veto_reserve m.fault ~now_ns:(Engine.now m.engine)
           ~load:(As.dynamic_bytes p.pvm) ~len:thread_stack_bytes
    then None
    else As.mmap p.pvm ~len:thread_stack_bytes
  in
  match r with
  | Some _ as got ->
      if attempt > 0 && m.fault_on then Fault.note_survived m.fault;
      got
  | None ->
      if attempt < Fault.max_retries then begin
        work_exact_cycles th (Fault.backoff_cycles attempt);
        map_stack m th p (attempt + 1)
      end
      else None

let spawn p ?name body =
  let m = p.pm in
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let th =
    { tid;
      tname = (match name with Some n -> n | None -> "");
      tproc = p;
      trng = Rng.split p.prng;
      tsome = None;
      tspin = None;
      state = Starting;
      resume = no_resume;
      park_register = no_register;
      sleep_wake = no_resume;
      on_cpu = -1;
      hot =
        { quantum_left = 0.;
          spawn_ns = Engine.now m.engine;
          finish_ns = nan;
          cpu_cycles = 0.;
          run_start_ns = 0.;
          spin_base = 0.;
        };
      switches = 0;
      blocks = 0;
      spin_wins = 0;
      faults = 0;
      stack_addr = -1;
      hooks = [];
      joiners = Queue.create ();
      lane = 0;
    }
  in
  th.tsome <- Some th;
  th.park_register <- (fun r -> th.resume <- r);
  p.live_threads <- p.live_threads + 1;
  if p.live_threads >= 2 then p.ever_multi <- true;
  (* The engine only needs a name string for trace lanes (and error
     messages, where it materializes its own default) — don't format one
     on unobserved runs. *)
  let ename = if Obs.tracing m.obs then Some (thread_name th) else name in
  th.lane <-
    (Engine.spawn m.engine ?name:ename (fun () ->
         acquire_cpu_initial m th;
         (* pthread_create: kernel work plus a freshly mapped stack whose
            first page faults in — the paper's ~1 page per thread. *)
         work_exact th m.config.thread_spawn_cycles;
         (match map_stack m th p 0 with
         | Some a ->
             th.stack_addr <- a;
             page_in th a ~len:1
         | None ->
             if m.fault_on then
               (* Degrade: run the thread without a modelled stack (its
                  pages and their faults simply aren't simulated) rather
                  than killing the whole run. *)
               Fault.note_degraded m.fault
             else
               raise
                 (Fault.Alloc_failure
                    { who = "Machine.spawn"; bytes = thread_stack_bytes }));
         body th;
         List.iter (fun hook -> hook ()) (List.rev th.hooks);
         if th.stack_addr >= 0 then
           As.munmap p.pvm th.stack_addr ~len:thread_stack_bytes;
         th.hot.finish_ns <- Engine.now m.engine;
         th.state <- Finished;
         p.live_threads <- p.live_threads - 1;
         Queue.iter (fun joiner -> make_ready m joiner) th.joiners;
         Queue.clear th.joiners;
         release_cpu m th));
  th

let exit_hook th hook = th.hooks <- hook :: th.hooks

let join th target =
  if target.state <> Finished then begin
    let m = th.tproc.pm in
    th.state <- Blocked;
    Queue.push th target.joiners;
    Engine.set_wait m.engine th.lane ~why:("joining " ^ thread_name target)
      ~waits_on:target.lane;
    release_cpu m th;
    park_for_cpu th
  end

(* --- ctx accessors ----------------------------------------------------- *)

let now th = Engine.now th.tproc.pm.engine

let tid th = th.tid

let cpu th = th.on_cpu

let proc th = th.tproc

let machine th = th.tproc.pm

let ctx_rng th = th.trng

let ctx_obs th = th.tproc.pm.obs

let checker t = t.check

let ctx_check th = th.tproc.pm.check

let fault t = t.fault

let ctx_fault th = th.tproc.pm.fault

let asid th = th.tproc.pasid

let lane th = th.lane

(* --- memory ------------------------------------------------------------ *)

(* The cache is physically indexed: identical virtual addresses in
   different processes must not collide, so fold the address-space id
   into the physical address. *)
let phys th addr = (th.tproc.pasid lsl 40) lor addr

let read_mem th addr =
  let m = th.tproc.pm in
  if m.check_on then
    Check.on_access m.check ~tid:th.tid ~asid:th.tproc.pasid ~addr ~write:false;
  page_in th addr ~len:1;
  let cost = Coherence.read m.cache ~cpu:th.on_cpu (phys th addr) in
  work_exact_cycles th cost

let write_mem th addr =
  let m = th.tproc.pm in
  if m.check_on then
    Check.on_access m.check ~tid:th.tid ~asid:th.tproc.pasid ~addr ~write:true;
  page_in th addr ~len:1;
  let cost = Coherence.write m.cache ~cpu:th.on_cpu (phys th addr) in
  work_exact_cycles th cost

let write_mem_repeated th addr ~count =
  let m = th.tproc.pm in
  if m.check_on then
    Check.on_access m.check ~tid:th.tid ~asid:th.tproc.pasid ~addr ~write:true;
  page_in th addr ~len:1;
  let cost = Coherence.write_repeated m.cache ~cpu:th.on_cpu (phys th addr) ~count in
  work_exact_cycles th cost

let touch_range th addr ~len =
  let m = th.tproc.pm in
  if m.check_on then
    Check.on_range m.check ~tid:th.tid ~asid:th.tproc.pasid ~addr ~len;
  page_in th addr ~len

(* VM syscalls: kernel entry cost, plus the big kernel lock when the
   config models a pre-2.3.5 kernel (paper section 3). *)
let with_vm_syscall th f =
  let m = th.tproc.pm in
  (* Entry/exit runs outside any kernel lock; the VM manipulation itself
     (the bulk of the cycles) is what pre-2.3.5 kernels serialized. *)
  let entry = m.config.syscall_cycles * 3 / 10 in
  let vm_work = m.config.syscall_cycles - entry in
  work_exact th entry;
  if m.config.vm_syscalls_take_bkl then begin
    let bkl = kernel_lock m in
    mutex_lock bkl th;
    work_exact th vm_work;
    let r = f () in
    mutex_unlock bkl th;
    r
  end
  else begin
    work_exact th vm_work;
    f ()
  end

(* Fault veto for a page reservation, evaluated inside the syscall body
   (after the kernel entry cost and any BKL acquisition, where the real
   kernel would discover exhaustion). Growth only: shrinks and releases
   always succeed. *)
let reserve_vetoed th ~len =
  let m = th.tproc.pm in
  m.fault_on && len > 0
  && Fault.veto_reserve m.fault ~now_ns:(Engine.now m.engine)
       ~load:(As.dynamic_bytes th.tproc.pvm) ~len

let sbrk th delta =
  th.tproc.pm.sbrk_calls <- th.tproc.pm.sbrk_calls + 1;
  with_vm_syscall th (fun () ->
      if reserve_vetoed th ~len:delta then None else As.sbrk th.tproc.pvm delta)

let mmap th ~len =
  th.tproc.pm.mmap_calls <- th.tproc.pm.mmap_calls + 1;
  with_vm_syscall th (fun () ->
      if reserve_vetoed th ~len then None else As.mmap th.tproc.pvm ~len)

let munmap th addr ~len =
  th.tproc.pm.munmap_calls <- th.tproc.pm.munmap_calls + 1;
  with_vm_syscall th (fun () -> As.munmap th.tproc.pvm addr ~len)

(* --- latches ------------------------------------------------------------ *)

module Latch = struct
  type machine = t

  type t = { lm : machine; mutable set : bool; waiters : thread Queue.t }

  let create lm = { lm; set = false; waiters = Queue.create () }

  let wait l th =
    if not l.set then begin
      th.state <- Blocked;
      Queue.push th l.waiters;
      Engine.set_wait l.lm.engine th.lane ~why:"waiting on a latch" ~waits_on:(-1);
      release_cpu l.lm th;
      park_for_cpu th
    end

  let signal l _ctx =
    if not l.set then begin
      l.set <- true;
      Queue.iter (fun w -> make_ready l.lm w) l.waiters;
      Queue.clear l.waiters
    end

  let is_set l = l.set
end

(* --- timed sleep -------------------------------------------------------- *)

(* Block until an absolute simulated time: release the CPU now, get
   pushed back on the ready queue by a timer event at [t]. The wake is
   a plain [make_ready], so the sleeper still competes for a CPU like
   any other ready thread — dispatch latency (up to a quantum under
   full load) is part of what the caller measures, exactly as a real
   nanosleep wake rides the run queue. Open-loop traffic generators
   use this to pace arrivals. A NaN fails the [t > now] guard, so it is
   rejected first rather than returning at once. *)
let sleep_until th t =
  let m = th.tproc.pm in
  if Float.is_nan t then invalid_arg "Machine.sleep_until: NaN time";
  if t > Engine.now m.engine then begin
    th.state <- Blocked;
    Engine.set_wait m.engine th.lane ~why:"sleeping" ~waits_on:(-1);
    if th.sleep_wake == no_resume then th.sleep_wake <- (fun () -> make_ready m th);
    ignore (Engine.at m.engine t th.sleep_wake : Engine.handle);
    release_cpu m th;
    park_for_cpu th
  end

(* --- wait queues --------------------------------------------------------- *)

(* A bare FIFO wait queue (the condition-variable half of a producer /
   consumer handoff). Unlike [Latch] it is reusable: threads park with
   [wait] and are released one at a time by [wake_one] or en masse by
   [wake_all]. There is no predicate and no associated lock — event
   executions are atomic between simulated-time operations, so a caller
   that checks its condition and parks without an intervening
   time-consuming op cannot miss a wake. Wakers pay [wake_cycles] per
   thread released, like a mutex handoff does. *)
module Waitq = struct
  type machine = t

  type t = { qm : machine; qwhy : string; waiters : thread Queue.t }

  let create qm ?(name = "waitq") () =
    { qm; qwhy = "waiting on " ^ name; waiters = Queue.create () }

  let wait q th =
    th.state <- Blocked;
    Queue.push th q.waiters;
    Engine.set_wait q.qm.engine th.lane ~why:q.qwhy ~waits_on:(-1);
    release_cpu q.qm th;
    park_for_cpu th

  let wake_one q th =
    if Queue.is_empty q.waiters then false
    else begin
      let w = Queue.take q.waiters in
      work_exact_cycles th q.qm.config.wake_cycles;
      make_ready q.qm w;
      true
    end

  let wake_all q th =
    let n = Queue.length q.waiters in
    if n > 0 then begin
      (* Charge the whole batch before releasing anyone: the charge can
         yield (quantum expiry), and a half-woken queue would let a
         released waiter re-park behind its own wake. *)
      work_exact_cycles th (q.qm.config.wake_cycles * n);
      Queue.iter (fun w -> make_ready q.qm w) q.waiters;
      Queue.clear q.waiters
    end;
    n

  let waiting q = Queue.length q.waiters
end

(* --- mutexes ------------------------------------------------------------ *)

module Mutex = struct
  type t = mutex

  let create mm ?name ?(heap = false) () =
    let mname = match name with Some n -> n | None -> "mutex" in
    mutex_make ~heap mm mname

  let try_lock = mutex_try_lock

  let lock = mutex_lock

  let unlock = mutex_unlock

  let contentions mu = mu.contentions

  let acquisitions mu = mu.acquisitions

  let name mu = mu.mname
end
