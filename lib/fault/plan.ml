type t = Oom_pressure | Flaky_reserve | Preempt_storm | Slow_lock

let all =
  [ ("oom-pressure", Oom_pressure);
    ("flaky-reserve", Flaky_reserve);
    ("preempt-storm", Preempt_storm);
    ("slow-lock", Slow_lock);
  ]

let label = function
  | Oom_pressure -> "oom-pressure"
  | Flaky_reserve -> "flaky-reserve"
  | Preempt_storm -> "preempt-storm"
  | Slow_lock -> "slow-lock"

let default_seed = 1

let parse s =
  if s = "none" then Ok None
  else begin
    let name, seed =
      match String.index_opt s ':' with
      | None -> (s, Ok default_seed)
      | Some i ->
          let tail = String.sub s (i + 1) (String.length s - i - 1) in
          ( String.sub s 0 i,
            match int_of_string_opt tail with
            | Some n when n >= 0 -> Ok n
            | Some _ | None -> Error (Printf.sprintf "bad fault seed %S" tail) )
    in
    match (List.assoc_opt name all, seed) with
    | _, Error msg -> Error msg
    | Some plan, Ok seed -> Ok (Some (plan, seed))
    | None, Ok _ ->
        Error
          (Printf.sprintf "unknown fault plan %S (try: none, %s)" name
             (String.concat ", " (List.map fst all)))
  end

let to_string = function
  | None -> "none"
  | Some (plan, seed) -> Printf.sprintf "%s:%d" (label plan) seed
