module Rng = Mb_prng.Rng

type t = {
  plan : Plan.t option;
  rng : Rng.t;  (* private stream: decisions never touch workload rngs *)
  mutable injected_reserve : int;
  mutable injected_preempt : int;
  mutable injected_slowlock : int;
  mutable survived : int;
  mutable degraded : int;
}

exception Alloc_failure of { who : string; bytes : int }

let () =
  Printexc.register_printer (function
    | Alloc_failure { who; bytes } ->
        Some (Printf.sprintf "Alloc_failure(%s, %d bytes)" who bytes)
    | _ -> None)

let make plan seed =
  {
    plan;
    rng = Rng.create ~seed:(seed * 2 + 1);
    injected_reserve = 0;
    injected_preempt = 0;
    injected_slowlock = 0;
    survived = 0;
    degraded = 0;
  }

let null = make None 0

let create ~plan ~seed = make (Some plan) seed

let armed t = t.plan <> None

(* oom-pressure budget: the usable dynamic footprint starts at [base]
   and decays by [decay] bytes per simulated millisecond down to
   [floor]. Reservations that would push the footprint past the budget
   fail. Constants are sized against the quick bench2 configuration:
   its initial populations fit under [base], while per-round thread
   stacks and leak-driven growth late in the run cross the shrunk
   budget and exercise the retry/degradation paths. *)
let oom_base = 1_048_576 (* 1 MiB *)

let oom_floor = 262_144 (* 256 KiB *)

let oom_decay_per_ms = 65_536 (* 64 KiB *)

let oom_budget ~now_ns =
  let ms = now_ns /. 1e6 in
  let shrunk = float_of_int oom_base -. (float_of_int oom_decay_per_ms *. ms) in
  let floor_f = float_of_int oom_floor in
  if shrunk > floor_f then int_of_float shrunk else oom_floor

let veto_reserve t ~now_ns ~load ~len =
  match t.plan with
  | Some Plan.Oom_pressure ->
      let veto = load + len > oom_budget ~now_ns in
      if veto then t.injected_reserve <- t.injected_reserve + 1;
      veto
  | Some Plan.Flaky_reserve ->
      let veto = Rng.int t.rng 8 = 0 in
      if veto then t.injected_reserve <- t.injected_reserve + 1;
      veto
  | _ -> false

let preempt_now t =
  match t.plan with
  | Some Plan.Preempt_storm ->
      let fire = Rng.int t.rng 64 = 0 in
      if fire then t.injected_preempt <- t.injected_preempt + 1;
      fire
  | _ -> false

let slowlock_stretch = 1_200

let stretch_cycles t =
  match t.plan with
  | Some Plan.Slow_lock ->
      if Rng.int t.rng 8 = 0 then begin
        t.injected_slowlock <- t.injected_slowlock + 1;
        slowlock_stretch
      end
      else 0
  | _ -> 0

let note_survived t = t.survived <- t.survived + 1

let note_degraded t = t.degraded <- t.degraded + 1

let max_retries = 4

let backoff_cycles i = 2_000 lsl i

let injected t = t.injected_reserve + t.injected_preempt + t.injected_slowlock

let injected_reserve t = t.injected_reserve

let injected_preempt t = t.injected_preempt

let injected_slowlock t = t.injected_slowlock

let survived t = t.survived

let degraded t = t.degraded
