type t = {
  slope : float;
  intercept : float;
  r2 : float;
  n : int;
}

let fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Regression.fit: need at least two points";
  let nf = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let mx = sx /. nf and my = sy /. nf in
  let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) *. (x -. mx))) 0. points in
  let sxy = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. points in
  let syy = List.fold_left (fun a (_, y) -> a +. ((y -. my) *. (y -. my))) 0. points in
  if sxx = 0. then invalid_arg "Regression.fit: all x values identical";
  let slope = sxy /. sxx in
  let intercept = my -. (slope *. mx) in
  let r2 =
    if syy = 0. then 1.0
    else begin
      let ss_res =
        List.fold_left
          (fun a (x, y) ->
            let e = y -. ((slope *. x) +. intercept) in
            a +. (e *. e))
          0. points
      in
      1.0 -. (ss_res /. syy)
    end
  in
  { slope; intercept; r2; n }
