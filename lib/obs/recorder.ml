type event = {
  lane : int;
  name : string;
  ts_ns : float;
  dur_ns : float;
  args : (string * string) list;
}

type t = {
  trace : bool;
  metrics : bool;
  counters : (string, int ref) Hashtbl.t;
  mutable events : event list;  (* reversed *)
  mutable n_events : int;
  lane_names : (int, string) Hashtbl.t;
}

let make ~trace ~metrics =
  { trace;
    metrics;
    counters = Hashtbl.create (if metrics then 32 else 1);
    events = [];
    n_events = 0;
    lane_names = Hashtbl.create (if trace then 16 else 1);
  }

let null = make ~trace:false ~metrics:false

let create ?(trace = true) ?(metrics = true) () = make ~trace ~metrics

let enabled t = t.trace || t.metrics

let tracing t = t.trace

let metering t = t.metrics

(* --- counters --------------------------------------------------------- *)

let cell t key =
  match Hashtbl.find_opt t.counters key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters key r;
      r

let add t key n = if t.metrics then (cell t key) := !(cell t key) + n

let set t key v = if t.metrics then (cell t key) := v

let counter t key = match Hashtbl.find_opt t.counters key with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- events ----------------------------------------------------------- *)

let push t ev =
  t.events <- ev :: t.events;
  t.n_events <- t.n_events + 1

let span t ~lane ~name ~ts_ns ~dur_ns ?(args = []) () =
  if t.trace then push t { lane; name; ts_ns; dur_ns = (if dur_ns < 0. then 0. else dur_ns); args }

let instant t ~lane ~name ~ts_ns ?(args = []) () =
  if t.trace then push t { lane; name; ts_ns; dur_ns = -1.; args }

let set_lane t lane name = if t.trace then Hashtbl.replace t.lane_names lane name

let events t = List.rev t.events

let lanes t =
  Hashtbl.fold (fun lane name acc -> (lane, name) :: acc) t.lane_names []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let event_count t = t.n_events

(* --- aggregation ------------------------------------------------------ *)

let totals runs =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (_label, r) ->
      Hashtbl.iter
        (fun k v ->
          let cur = match Hashtbl.find_opt table k with Some c -> c | None -> 0 in
          Hashtbl.replace table k (cur + !v))
        r.counters)
    runs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
