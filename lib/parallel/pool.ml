(* Domain pool with helping joins.

   One shared FIFO protected by a mutex; [jobs - 1] worker domains drain
   it. The submitting domain is the remaining unit of width: while it
   waits in [await] it pops and runs queued tasks itself, which is what
   makes nested submission (pool task -> sub-tasks -> join) deadlock-free
   with any width.

   Determinism does not depend on scheduling: tasks are self-contained
   computations that run under their submitter's context, and callers
   join futures in submission order, so result order — and therefore all
   output printed by the joining domain — is independent of which domain
   ran what when. *)

type 'a state =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace
  | Abandoned  (* pool shut down before the task ran *)

type 'a future = { key : string; mutable state : 'a state }

(* A queued task and the runner that installs its submitter's context. *)
type task = Task : 'a future * ((unit -> unit) -> unit) * (unit -> 'a) -> task

type t = {
  mutex : Mutex.t;
  work : Condition.t;   (* signalled on enqueue and shutdown *)
  done_ : Condition.t;  (* broadcast on every task completion *)
  queue : task Queue.t;
  mutable in_flight : int;  (* tasks popped but not yet published *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  width : int;
}

(* Pop under the lock (caller holds it), marking the task in flight so
   shutdown/await can tell "still running" from "never will run". *)
let take_locked t =
  match Queue.take_opt t.queue with
  | Some task ->
      t.in_flight <- t.in_flight + 1;
      Some task
  | None -> None

let compute f = try Done (f ()) with e -> Raised (e, Printexc.get_raw_backtrace ())

(* Run a task outside the lock under its submitter's context, then
   publish its result under the lock. *)
let run_task t (Task (fut, within, f)) =
  let result = ref Pending in
  within (fun () -> result := compute f);
  Mutex.lock t.mutex;
  fut.state <- !result;
  t.in_flight <- t.in_flight - 1;
  Condition.broadcast t.done_;
  Mutex.unlock t.mutex

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    match take_locked t with
    | Some task -> Some task
    | None ->
        if t.stopping then None
        else begin
          Condition.wait t.work t.mutex;
          next ()
        end
  in
  let task = next () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
      run_task t task;
      worker_loop t

let create ~jobs =
  let t =
    { mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      queue = Queue.create ();
      in_flight = 0;
      stopping = false;
      workers = [];
      width = jobs;
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.width

let context = ref (fun () f -> f ())

let set_context capture = context := capture

let submit t ~key f =
  let fut = { key; state = Pending } in
  if t.width <= 1 then fut.state <- compute f
  else begin
    let within = !context () in
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg (Printf.sprintf "Pool.submit %S: pool is shut down" key)
    end;
    Queue.add (Task (fut, within, f)) t.queue;
    Condition.signal t.work;
    Mutex.unlock t.mutex
  end;
  fut

let resolve fut =
  match fut.state with
  | Done v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Abandoned | Pending ->
      invalid_arg (Printf.sprintf "Pool.await %S: task never ran (pool shut down)" fut.key)

let await t fut =
  match fut.state with
  | Done _ | Raised _ | Abandoned -> resolve fut
  | Pending ->
      Mutex.lock t.mutex;
      let rec loop () =
        match fut.state with
        | Pending -> (
            (* Help: run someone's queued task rather than going idle. *)
            match take_locked t with
            | Some task ->
                Mutex.unlock t.mutex;
                run_task t task;
                Mutex.lock t.mutex;
                loop ()
            | None ->
                if t.stopping && t.in_flight = 0 then fut.state <- Abandoned
                else begin
                  Condition.wait t.done_ t.mutex;
                  loop ()
                end)
        | Done _ | Raised _ | Abandoned -> ()
      in
      loop ();
      Mutex.unlock t.mutex;
      resolve fut

let map_list t ~key ~f xs =
  let futs =
    List.mapi
      (fun i x -> submit t ~key:(Printf.sprintf "%s[%d]" key i) (fun () -> f i x))
      xs
  in
  List.map (await t) futs

let shutdown t =
  Mutex.lock t.mutex;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.work;
  Condition.broadcast t.done_;
  Mutex.unlock t.mutex;
  if not already then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* The global pool may be demanded from several domains at once (a
   task calling a pooled helper), hence the lock. *)
let global_lock = Mutex.create ()

let global_pool = ref None

let global_jobs = ref (Domain.recommended_domain_count ())

let () = at_exit (fun () -> Option.iter shutdown !global_pool)

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs < 1";
  Mutex.protect global_lock (fun () ->
      Option.iter shutdown !global_pool;
      global_pool := None;
      global_jobs := n)

let global () =
  Mutex.protect global_lock (fun () ->
      match !global_pool with
      | Some t -> t
      | None ->
          let t = create ~jobs:!global_jobs in
          global_pool := Some t;
          t)
