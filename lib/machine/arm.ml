type t = {
  trace : bool;
  metrics : bool;
  check : bool;
  faults : (Mb_fault.Plan.t * int) option;
}

let off = { trace = false; metrics = false; check = false; faults = None }

let state = Atomic.make off

let set t = Atomic.set state t

let current () = Atomic.get state

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
