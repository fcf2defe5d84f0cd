module Series = Mb_stats.Series

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

let render ?(width = 64) ?(height = 16) ~title ~x_label ~y_label series =
  let all_points = List.concat_map (fun (s : Series.t) -> s.Series.points) series in
  if all_points = [] then title ^ "\n(no data)\n"
  else begin
    let xs = List.map (fun (p : Series.point) -> p.Series.x) all_points in
    let ys = List.map (fun (p : Series.point) -> p.Series.y) all_points in
    let x_min = List.fold_left min (List.hd xs) xs in
    let x_max = List.fold_left max (List.hd xs) xs in
    let y_max = List.fold_left max (List.hd ys) ys in
    let y_max = if y_max <= 0. then 1. else y_max *. 1.05 in
    let x_span = if x_max = x_min then 1. else x_max -. x_min in
    let canvas = Array.make_matrix height width ' ' in
    let plot_point glyph x y =
      let col = int_of_float ((x -. x_min) /. x_span *. float_of_int (width - 1)) in
      let row = int_of_float (y /. y_max *. float_of_int (height - 1)) in
      let r = height - 1 - max 0 (min (height - 1) row) in
      let c = max 0 (min (width - 1) col) in
      canvas.(r).(c) <- glyph
    in
    List.iteri
      (fun i (s : Series.t) ->
        let glyph = glyphs.(i mod Array.length glyphs) in
        List.iter (fun (p : Series.point) -> plot_point glyph p.Series.x p.Series.y) s.Series.points)
      series;
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "%s\n" title);
    Buffer.add_string buf (Printf.sprintf "  %s\n" y_label);
    for r = 0 to height - 1 do
      let y_here = float_of_int (height - 1 - r) /. float_of_int (height - 1) *. y_max in
      Buffer.add_string buf (Printf.sprintf "%10.2f |" y_here);
      Buffer.add_string buf (String.init width (fun c -> canvas.(r).(c)));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make width '-'));
    Buffer.add_string buf
      (Printf.sprintf "%10s  %-*.6g%*.6g   (%s)\n" "" (width / 2) x_min (width / 2) x_max x_label);
    List.iteri
      (fun i (s : Series.t) ->
        Buffer.add_string buf
          (Printf.sprintf "%10s  %c = %s\n" "" glyphs.(i mod Array.length glyphs) s.Series.label))
      series;
    Buffer.contents buf
  end
