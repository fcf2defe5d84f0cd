module M = Mb_machine.Machine
module A = Mb_alloc.Allocator

let publish m allocators ~label =
  let obs = M.observer m in
  if Mb_obs.Recorder.enabled obs then
    List.iter (fun a -> Mb_alloc.Astats.publish a.A.stats obs) allocators;
  Mb_machine.Arm.publish ~label obs (M.checker m) (M.fault m)
