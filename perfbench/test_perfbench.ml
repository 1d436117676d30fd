(* Unit tests for the benchmark's own helpers: the tail-percentile
   rule, self time from nested spans, and the seeded op order. *)

let tail_rule () =
  let check n expected =
    Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) expected
      (Stats.tail_permille n)
  in
  check 19 None;
  check 20 (Some 500);
  check 99 (Some 750);
  check 100 (Some 900);
  check 186 (Some 900);
  check 999 (Some 950);
  check 1000 (Some 990);
  check 10_000 (Some 999);
  (* whatever percentile is chosen has at least ten samples beyond it *)
  for n = 20 to 2000 do
    match Stats.tail_permille n with
    | Some pm ->
      if Stats.beyond ~n pm < Stats.min_beyond then
        Alcotest.failf "n=%d: only %d beyond p%d" n (Stats.beyond ~n pm) pm
    | None -> Alcotest.failf "n=%d: no percentile" n
  done

let percentile_values () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let sorted = Stats.sorted xs in
  Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 (Stats.percentile sorted 900);
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Stats.percentile sorted 500);
  Alcotest.(check (float 0.0)) "median of 1..100" 50.5 (Stats.median xs);
  Alcotest.(check (float 0.0)) "median of 3" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |])

let span ~name ~t0 ~t1 ~parent = { Spans.name; t0; t1; parent; op = 0 }

let self_nested () =
  (* root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90] *)
  let spans =
    [| span ~name:0 ~t0:0 ~t1:100 ~parent:(-1);
       span ~name:1 ~t0:10 ~t1:40 ~parent:0;
       span ~name:2 ~t0:15 ~t1:25 ~parent:1;
       span ~name:1 ~t0:50 ~t1:90 ~parent:0 |]
  in
  Alcotest.(check (array int)) "self" [| 30; 20; 10; 40 |] (Spans.self_ns spans)

let self_recorded () =
  Spans.clear ();
  Spans.enabled := true;
  let outer = Spans.intern "test.outer" and inner = Spans.intern "test.inner" in
  Spans.wrap outer (fun () ->
      Spans.wrap inner ignore;
      (try Spans.wrap inner (fun () -> failwith "boom") with Failure _ -> ());
      Spans.wrap inner ignore);
  Spans.wrap inner ignore;
  Spans.enabled := false;
  let spans = Spans.spans () in
  Alcotest.(check (list int)) "parents" [ -1; 0; 0; 0; -1 ]
    (Array.to_list (Array.map (fun (s : Spans.span) -> s.parent) spans));
  let self = Spans.self_ns spans in
  let dur (s : Spans.span) = s.t1 - s.t0 in
  Alcotest.(check int) "outer self = outer - children"
    (dur spans.(0) - dur spans.(1) - dur spans.(2) - dur spans.(3))
    self.(0);
  Array.iter
    (fun x -> if x < 0 then Alcotest.fail "negative self time")
    self;
  let tbl = Spans.by_name spans in
  Alcotest.(check int) "inner calls" 4 (snd (Hashtbl.find tbl "test.inner"));
  Spans.clear ()

let seeded_order () =
  let p ~seed ~pass = Order.permutation ~seed ~pass 186 in
  let is_perm a =
    let s = Array.copy a in
    Array.sort compare s;
    s = Array.init (Array.length a) Fun.id
  in
  Alcotest.(check bool) "a permutation" true (is_perm (p ~seed:7 ~pass:1));
  Alcotest.(check (array int)) "same seed, same order" (p ~seed:7 ~pass:1)
    (p ~seed:7 ~pass:1);
  Alcotest.(check bool) "another seed, another order" false
    (p ~seed:7 ~pass:1 = p ~seed:8 ~pass:1);
  Alcotest.(check bool) "another pass, another order" false
    (p ~seed:7 ~pass:1 = p ~seed:7 ~pass:2)

let () =
  Alcotest.run "perfbench"
    [ ("stats",
       [ Alcotest.test_case "tail percentile rule" `Quick tail_rule;
         Alcotest.test_case "nearest-rank values" `Quick percentile_values ]);
      ("spans",
       [ Alcotest.test_case "self time of nested spans" `Quick self_nested;
         Alcotest.test_case "recorded nesting" `Quick self_recorded ]);
      ("order",
       [ Alcotest.test_case "seeded permutation" `Quick seeded_order ]) ]
