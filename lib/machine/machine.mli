(** A simulated shared-memory multiprocessor.

    Builds the paper's experimental platform out of the event engine:
    [cpus] processors scheduling simulated threads round-robin with a
    quantum, context-switch costs, processes with private address spaces,
    kernel-ish mutexes (try-lock, adaptive spin, block with direct
    handoff), demand paging charges, and a shared cache-coherence model.

    Thread bodies receive a {!ctx} capability; every operation on it
    consumes simulated time on the thread's current CPU. All
    nondeterminism comes from the machine's seed.

    Each machine owns one {!Mb_obs.Recorder.t}. When observation is on,
    the machine traces CPU tenures ("run" spans, one lane per thread)
    and mutex blocks, and flushes machine-wide counters (per-lock
    acquired/contended pairs, cache-coherence traffic, VM-syscall and
    context-switch counts) into the recorder when {!run} returns.
    Recording consumes no simulated time, so observed and unobserved
    runs produce identical results. *)

type t

type proc
(** A process: private address space, one or more threads. *)

type thread

type ctx
(** Capability handed to a running thread's body. *)

type config = {
  cpus : int;
  mhz : float;                  (** clock rate; 1 cycle = 1000/mhz ns *)
  quantum_us : float;           (** scheduler time slice *)
  ctx_switch_cycles : int;      (** charged whenever a CPU switches threads *)
  atomic_cycles : int;          (** lock/unlock atomic op in a multithreaded process *)
  stub_lock_cycles : int;       (** lock/unlock stub in a single-threaded process *)
  spin_cycles : int;            (** adaptive-mutex spin budget before blocking; 0 = block immediately (the Solaris 2.6 default-mutex behaviour); spinning is skipped on uniprocessors *)
  mutex_handoff : bool;         (** true: unlock hands the mutex directly to the first blocked waiter (Solaris-style, forms convoys). false: unlock frees the mutex and merely wakes a waiter, which must re-compete with spinners (futex-style barging). *)
  wake_cycles : int;            (** charged to a thread waking a blocked waiter *)
  syscall_cycles : int;         (** kernel entry/exit for sbrk/mmap/munmap *)
  vm_syscalls_take_bkl : bool;  (** serialize sbrk/mmap/munmap machine-wide behind the big kernel lock, as pre-2.3.5 Linux did (paper section 3) *)
  minor_fault_cycles : int;     (** servicing one minor page fault *)
  thread_spawn_cycles : int;    (** pthread_create work beyond paging *)
  op_jitter : float;            (** ± relative noise on {!work} durations *)
  cache : Mb_cache.Coherence.config;
  vm : Mb_vm.Address_space.config;
}

val default_config : config
(** A generic 2-CPU machine; presets for the paper's hosts live in
    {!Configs}. *)

val create : ?seed:int -> config -> t
(** Fresh machine. Equal seeds and programs give identical runs.
    The machine's {!observer}, {!checker} and {!fault} injector come
    from the {!Arm} setting at this call: fresh instruments for the
    channels that are on, the null ones otherwise. None of them
    consumes simulated time or randomness, so armed runs compute the
    same results as bare ones, and with nothing armed every
    instrumentation site is a dead branch.
    @raise Invalid_argument naming the field when [cpus] is not
    positive, [mhz] or [quantum_us] is not positive and finite,
    [op_jitter] is not in [\[0, 1)] (NaN and infinity included), or a
    cycle cost, the cache's included, is negative. *)

val config : t -> config

val cache : t -> Mb_cache.Coherence.t

val rng : t -> Mb_prng.Rng.t
(** The machine's root random stream (split it; don't share). *)

val observer : t -> Mb_obs.Recorder.t
(** This machine's observation recorder ({!Mb_obs.Recorder.null} when
    the run is unobserved). Workload drivers read it after {!run} to
    publish the run's counters and trace. *)

val checker : t -> Mb_check.Checker.t
(** This machine's dynamic checker ({!Mb_check.Checker.null} when
    checking is off). The machine feeds it mutex hold-set transitions
    and memory accesses; allocators feed it block lifetimes. Workload
    drivers read it after {!run} to publish findings. *)

val fault : t -> Mb_fault.Injector.t
(** This machine's fault injector ({!Mb_fault.Injector.null} when no
    plan is armed). The machine consults it at page-reservation and
    lock sites; allocators at retry sites; workload drivers read it
    after {!run} to publish injected/survived/degraded counts. *)

val cycles_to_ns : t -> float -> float

val exact_jump : float -> float -> int -> float option
(** [exact_jump x d k] is the spin path's one-step jump over [k]
    additions of [d] to [x]: [Some (x +. float_of_int k *. d)] when that
    is provably the bits [k] rounded additions in turn produce, and
    [None] when the spin path walks the additions instead. Exposed for
    tests. *)

val run : t -> unit
(** Run the simulation until every spawned thread has finished, then
    snapshot the run's counters into the {!observer}.
    @raise Mb_sim.Engine.Stalled on deadlock. *)

val now_ns : t -> float

val total_ctx_switches : t -> int

val busy_cycles : t -> float
(** Total cycles during which some thread held a CPU; utilization is
    [busy_cycles / (cpus * now / cycle_ns)]. *)

val kernel_lock_contentions : t -> int
(** VM syscalls that found the big kernel lock held (0 when
    [vm_syscalls_take_bkl] is off or never contended). *)

(** {1 Processes} *)

val create_proc : t -> ?name:string -> unit -> proc
(** Creates a process: sets up its address space (binary + libc mappings),
    touches the startup pages, and accounts their minor faults. No thread
    runs until {!spawn}ed. *)

val proc_vm : proc -> Mb_vm.Address_space.t

val proc_machine : proc -> t

val proc_multithreaded : proc -> bool
(** True once the process has ever had two or more live threads; real
    libc switches from stub to atomic locking at that point, and so does
    the simulated one (the flag is sticky). *)

val libc_data_address : int
(** Base address of the (fixed-mapped, touchable) libc data segment in
    every process; allocators place their global hot words here, which is
    what lets the cache model see "allocator variable" sloshing. *)

(** {1 Threads} *)

val spawn : proc -> ?name:string -> (ctx -> unit) -> thread
(** Create a thread of [proc]. The thread maps and touches a stack when it
    first runs (the paper's ~1 page per [pthread_create]), then executes
    the body. Callable from setup code or from inside another thread. *)

val elapsed_ns : thread -> float
(** Wall-clock (simulated) time from spawn to exit. Only meaningful after
    {!run} completes or the thread has exited.
    @raise Invalid_argument if the thread has not finished. *)

type thread_stats = {
  cpu_cycles : float;       (** cycles of CPU actually consumed *)
  ctx_switches : int;       (** times this thread was put on a CPU *)
  blocks : int;             (** times it blocked on a mutex *)
  spins : int;              (** contended acquisitions resolved by spinning *)
  page_faults : int;        (** minor faults it triggered *)
}

val thread_stats : thread -> thread_stats

(** {1 Operations inside a thread}

    All of these must be called from within the thread body that received
    the [ctx]. *)

val work : ctx -> int -> unit
(** Consume the given number of CPU cycles (perturbed by [op_jitter]).
    May be preempted at quantum boundaries. *)

val work_exact : ctx -> int -> unit
(** Like {!work} but without jitter; for calibration paths. *)

val now : ctx -> float
(** Simulated nanoseconds. *)

val tid : ctx -> int

val proc : ctx -> proc

val ctx_rng : ctx -> Mb_prng.Rng.t
(** Per-thread random stream. *)

val ctx_obs : ctx -> Mb_obs.Recorder.t
(** The owning machine's recorder, for allocator emission sites. *)

val ctx_check : ctx -> Mb_check.Checker.t
(** The owning machine's checker, for allocator instrumentation. *)

val ctx_fault : ctx -> Mb_fault.Injector.t
(** The owning machine's fault injector, for the allocator retry
    loop's policy and bookkeeping. *)

val asid : ctx -> int
(** The owning process's address-space id; the checker folds it into
    addresses the same way the physically-indexed cache does. *)

val lane : ctx -> int
(** This thread's trace lane (its engine pid); allocators use it to
    place their own trace events on the right swim lane. *)

val read_mem : ctx -> int -> unit
(** Simulate a load: demand-page the address (charging fault cost if it is
    a first touch) and charge the coherence cost of the access. *)

val write_mem : ctx -> int -> unit
(** Simulate a store, as {!read_mem}. *)

val write_mem_repeated : ctx -> int -> count:int -> unit
(** [count] back-to-back stores to one address (benchmark 3's loop); cost
    comes from {!Mb_cache.Coherence.write_repeated} plus paging. *)

val touch_range : ctx -> int -> len:int -> unit
(** Demand-page a byte range without cache traffic (bulk initialization),
    charging fault service time per newly resident page. *)

val sbrk : ctx -> int -> int option
(** The [sbrk] system call: charges kernel entry cost and moves the
    process break. *)

val mmap : ctx -> len:int -> int option

val munmap : ctx -> int -> len:int -> unit

val join : ctx -> thread -> unit
(** Block until the target thread (of any process) exits. *)

(** {1 Synchronization} *)

(** A one-shot latch: threads {!Latch.wait} until someone {!Latch.signal}s;
    after that, waits return immediately. The workloads use it to let a
    main thread sleep until the last of a set of dynamically created
    threads finishes (benchmark 2's thread chains). *)
module Latch : sig
  type machine := t

  type t

  val create : machine -> t

  val wait : t -> ctx -> unit

  val signal : t -> ctx -> unit
  (** Releases current and future waiters. Idempotent. *)

  val is_set : t -> bool
end

val sleep_until : ctx -> float -> unit
(** [sleep_until ctx t] blocks the calling thread until absolute
    simulated time [t] (ns), then re-competes for a CPU like any other
    ready thread — so the caller observes wake-to-dispatch latency under
    load, as a real timer sleep does. Returns immediately if [t] is not
    in the future. The open-loop traffic generators use it to pace
    arrivals. @raise Invalid_argument if [t] is NaN. *)

(** A reusable FIFO wait queue — the condition-variable half of a
    producer/consumer handoff. Threads park with {!Waitq.wait}; wakers
    release one ({!Waitq.wake_one}) or all ({!Waitq.wake_all}) and pay
    {!field-wake_cycles} per thread released. There is no predicate and
    no lock: event executions are atomic between simulated-time
    operations, so checking a condition and parking without an
    intervening time-consuming op cannot miss a wake. *)
module Waitq : sig
  type machine := t

  type t

  val create : machine -> ?name:string -> unit -> t
  (** [name] labels the blocked state in traces ("waiting on [name]"). *)

  val wait : t -> ctx -> unit
  (** Park until released by a waker. Unconditional — callers check
      their own predicate first. *)

  val wake_one : t -> ctx -> bool
  (** Release the longest-parked waiter, charging the caller
      {!field-wake_cycles}. [false] if nobody was waiting (free). *)

  val wake_all : t -> ctx -> int
  (** Release every current waiter (charging {!field-wake_cycles} each);
      returns how many. *)
end

module Mutex : sig
  type machine := t

  type t

  val create : machine -> ?name:string -> ?heap:bool -> unit -> t
  (** [heap] marks this mutex as an allocator heap lock (default
      [false]): the end-of-run metrics flush then folds its counts into
      the aggregated [alloc.lock.acquired] / [alloc.lock.contended] /
      [alloc.lock.uncontended] counters — the paper's central
      contended-vs-uncontended split. *)

  val lock : t -> ctx -> unit
  (** Charges the lock-op cost ({!field-atomic_cycles} or
      {!field-stub_lock_cycles} depending on the process), then acquires:
      immediately if free; after spinning if the config allows and the
      machine is an SMP; otherwise blocks until handed the lock. *)

  val try_lock : t -> ctx -> bool
  (** Non-blocking acquire; charges the lock-op cost either way. *)

  val unlock : t -> ctx -> unit
  (** Releases. If waiters are blocked: with [mutex_handoff] the lock is
      handed directly to the first waiter (convoy-forming); otherwise the
      lock is freed and the waiter merely woken to re-compete with any
      barging spinners. Either way the unlocker pays [wake_cycles].
      @raise Invalid_argument if not held by the calling thread. *)

  val contentions : t -> int
  (** Lock attempts that found the mutex held. *)

  val acquisitions : t -> int
end
