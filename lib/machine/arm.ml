type t = {
  trace : bool;
  metrics : bool;
  check : bool;
  faults : (Mb_fault.Plan.t * int) option;
}

let off = { trace = false; metrics = false; check = false; faults = None }

let setting = Domain.DLS.new_key (fun () -> off)

let set t = Domain.DLS.set setting t

let current () = Domain.DLS.get setting

let within t f =
  let own = current () in
  set t;
  Fun.protect ~finally:(fun () -> set own) f

(* A pool task runs under the setting its submitter had. *)
let () = Mb_parallel.Pool.set_context (fun () -> within (current ()))

type run = {
  label : string;
  recorder : Mb_obs.Recorder.t;
  checker : Mb_check.Checker.t;
  injector : Mb_fault.Injector.t;
}

let lock = Mutex.create ()

let published : run list ref = ref []  (* reversed arrival order *)

let publish ~label recorder checker injector =
  if
    Mb_obs.Recorder.enabled recorder
    || Mb_check.Checker.armed checker
    || Mb_fault.Injector.armed injector
  then begin
    let run = { label = label (); recorder; checker; injector } in
    Mutex.lock lock;
    published := run :: !published;
    Mutex.unlock lock
  end

let drain () =
  Mutex.lock lock;
  let runs = List.rev !published in
  published := [];
  Mutex.unlock lock;
  List.stable_sort (fun a b -> String.compare a.label b.label) runs
