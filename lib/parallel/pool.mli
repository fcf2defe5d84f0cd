(** The process's domain pool, with deterministic, submission-ordered
    joins.

    The pool exists to parallelize the experiment harness across CPU
    cores without changing any observable output: tasks are pure
    computations (no printing inside a task), and callers join futures
    in submission order, so the sequence of results — and anything
    printed from them by the joining domain — is byte-identical to a
    sequential run.

    There is one pool, {!global}; {!set_jobs} sets its width. Width 1
    is special-cased: [submit] runs the task immediately on the calling
    domain and no worker domains are spawned, so every task, nested
    ones included, runs on the submitting domain, exactly as a
    pool-free harness would.

    Widths above 1 spawn [jobs - 1] worker domains; the submitting
    domain "steals" queued work while it waits in {!await}, so nested
    submissions (a pool task that itself submits sub-tasks and joins
    them) cannot deadlock even when every worker is busy. *)

type t
(** A pool of worker domains plus a shared FIFO task queue. *)

type 'a future
(** Handle to a submitted task's eventual result (or exception). *)

val set_jobs : int -> unit
(** [set_jobs n] sets the total width of {!global} (>= 1): the calling
    domain plus [n - 1] worker domains. The default is
    [Domain.recommended_domain_count ()]. An existing pool is shut down
    and the next {!global} builds one of the new width, so call this
    only while no task is in flight, like [Arm.set].
    @raise Invalid_argument if [n < 1]. *)

val global : unit -> t
(** The process-wide pool, created on first use at the width {!set_jobs}
    last set and shut down automatically at exit. Safe to call from any
    domain. *)

val jobs : t -> int
(** Total width the pool was created with. *)

val set_context : (unit -> (unit -> unit) -> unit) -> unit
(** [set_context capture] makes every task inherit its submitter's
    context. {!submit} calls [capture ()] on the submitting domain; the
    domain that runs the task passes the task to the function that
    returned, which must run it under the captured context and then
    restore the domain's own. The default captures nothing. Register
    once, before the first {!submit}. A width-1 pool runs tasks in the
    submitter's own context and never calls [capture]. *)

val submit : t -> key:string -> (unit -> 'a) -> 'a future
(** [submit t ~key f] queues [f] for execution. [key] is a stable label
    used in error messages; it does not affect scheduling. On a
    width-1 pool, [f] runs right here, right now. Exceptions raised by
    [f] are captured and re-raised (with backtrace) by {!await}. *)

val await : t -> 'a future -> 'a
(** Block until the future's task has run, returning its result or
    re-raising its exception. While waiting, the calling domain
    executes other queued tasks (helping), so it is safe to await from
    inside a pool task.
    @raise Invalid_argument if {!set_jobs} shut the pool down before
    the task ran. *)

val map_list : t -> key:string -> f:(int -> 'a -> 'b) -> 'a list -> 'b list
(** [map_list t ~key ~f xs] submits [f i x] for each element and joins
    in submission order: the result list lines up with [xs] exactly as
    [List.mapi f xs] would, regardless of pool width. *)
