(* Property tests for the open-addressing int-keyed table: an arbitrary
   interleaving of set/remove/find must match a Hashtbl reference model,
   including after backward-shift deletions and growth. Key ranges are
   kept small so chains of colliding and re-colliding keys are common. *)

module T = Mb_sim.Int_table

type op = Set of int * int | Remove of int | Find of int

let op_gen =
  QCheck.Gen.(
    (* Small keys collide after masking; the occasional huge or negative
       key exercises the full hash range. *)
    let key =
      frequency
        [ (8, int_range (-20) 20);
          (1, map (fun k -> k * 0x1_0000_0001) (int_range (-1000) 1000));
          (1, int_range (min_int + 1) max_int);
        ]
    in
    frequency
      [ (5, map2 (fun k v -> Set (k, v)) key (int_bound 1000));
        (3, map (fun k -> Remove k) key);
        (2, map (fun k -> Find k) key);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Set (k, v) -> Printf.sprintf "set %d %d" k v
             | Remove k -> Printf.sprintf "rm %d" k
             | Find k -> Printf.sprintf "find %d" k)
           ops))
    QCheck.Gen.(list_size (int_range 0 500) op_gen)

let prop_fuzz_vs_hashtbl =
  QCheck.Test.make ~name:"set/remove/find fuzz matches Hashtbl" ~count:300 ops_arb (fun ops ->
      let t = T.create ~initial:8 () in
      let h = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          (match op with
          | Set (k, v) ->
              T.set t k v;
              Hashtbl.replace h k v
          | Remove k ->
              T.remove t k;
              Hashtbl.remove h k
          | Find _ -> ());
          match op with
          | Find k | Set (k, _) | Remove k ->
              T.find_opt t k = Hashtbl.find_opt h k
              && T.mem t k = Hashtbl.mem h k
              && T.length t = Hashtbl.length h)
        ops)

let prop_fold_matches_hashtbl =
  QCheck.Test.make ~name:"iter/fold see exactly the live bindings" ~count:200 ops_arb
    (fun ops ->
      let t = T.create () in
      let h = Hashtbl.create 8 in
      List.iter
        (function
          | Set (k, v) ->
              T.set t k v;
              Hashtbl.replace h k v
          | Remove k ->
              T.remove t k;
              Hashtbl.remove h k
          | Find _ -> ())
        ops;
      let sorted l = List.sort compare l in
      let via_fold = T.fold (fun k v acc -> (k, v) :: acc) t [] in
      let reference = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
      sorted via_fold = sorted reference)

(* Backward-shift deletion: at 3/4 load a small table is dense with
   probe chains, so removing every other key exercises hole-filling in
   the middle of chains; every survivor must stay reachable with its
   value, and re-inserting the removed keys must still work. *)
let test_delete_from_chain () =
  let t = T.create ~initial:8 () in
  let n = 96 in
  for k = 1 to n do
    T.set t k (k * 10)
  done;
  for k = 1 to n do
    if k mod 2 = 0 then T.remove t k
  done;
  for k = 1 to n do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d after deletions" k)
      (if k mod 2 = 0 then None else Some (k * 10))
      (T.find_opt t k)
  done;
  for k = 1 to n do
    if k mod 2 = 0 then T.set t k (k * 100)
  done;
  for k = 1 to n do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d after reinsert" k)
      (Some (if k mod 2 = 0 then k * 100 else k * 10))
      (T.find_opt t k)
  done

let test_reserved_key () =
  let t = T.create () in
  Alcotest.check_raises "min_int rejected" (Invalid_argument "Int_table.set: reserved key")
    (fun () -> T.set t min_int 1);
  (* Lookups and removals of the sentinel are simply misses. *)
  Alcotest.(check bool) "mem min_int" false (T.mem t min_int);
  Alcotest.(check (option int)) "find min_int" None (T.find_opt t min_int);
  T.remove t min_int;
  Alcotest.(check int) "length untouched" 0 (T.length t)

let test_find_exn () =
  let t = T.create () in
  T.set t 7 42;
  Alcotest.(check int) "hit" 42 (T.find_exn t 7);
  Alcotest.check_raises "miss" Not_found (fun () -> ignore (T.find_exn t 8))

let suite =
  [ QCheck_alcotest.to_alcotest prop_fuzz_vs_hashtbl;
    QCheck_alcotest.to_alcotest prop_fold_matches_hashtbl;
    Alcotest.test_case "delete from probe chain" `Quick test_delete_from_chain;
    Alcotest.test_case "reserved key" `Quick test_reserved_key;
    Alcotest.test_case "find_exn" `Quick test_find_exn;
  ]
