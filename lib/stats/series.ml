type point = { x : float; y : float; err : float }

type t = { label : string; points : point list }

let make ~label pts = { label; points = List.map (fun (x, y) -> { x; y; err = 0. }) pts }

let of_summaries ~label pts =
  { label;
    points = List.map (fun (x, (s : Summary.t)) -> { x; y = s.Summary.mean; err = s.Summary.stddev }) pts
  }

let xs t = List.map (fun p -> p.x) t.points
