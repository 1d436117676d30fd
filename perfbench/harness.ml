(* The closed loop every workload runs under: one client in one process
   issues the next op only when the previous one has returned.

   A run executes whole passes over the workload's ops, each pass in the
   seeded order [Order.permutation ~seed ~pass], until the requested
   seconds have elapsed and enough ops were timed for the tail
   percentile.  Whole passes keep the set of ops identical from run to
   run, so seeds change the order and never the mix.  In a traced run
   passes alternate untraced / traced: the untraced ones give the
   baseline for the tracing overhead, the traced ones the spans. *)

type op = {
  label : string;
  run : unit -> string option;
  (* None when the op's output checked out, Some reason otherwise *)
}

type pass = {
  traced : bool;
  wall_ns : int;
  samples_ns : int array;  (* per op, in execution order *)
  order : int array;       (* op index of each sample *)
  failures : (string * string) list;  (* (op label, reason) *)
  minor_words : float;
  major_collections : int;
  cache_hits : int;
  cache_lookups : int;
}

(* Ops a run times at least, so [Stats.tail_permille] reaches p90. *)
let min_samples = 100

let cache_totals () =
  List.fold_left
    (fun (h, l) (_, hits, misses) -> (h + hits, l + hits + misses))
    (0, 0)
    (Trace.Build_cache.all_stats ())

let guarded (op : op) =
  match op.run () with
  | r -> r
  | exception e -> Some ("exception: " ^ Printexc.to_string e)

let run_pass ~root ~seed ~pass ~traced (ops : op array) =
  let n = Array.length ops in
  let order = Order.permutation ~seed ~pass n in
  let samples = Array.make n 0 in
  let failures = ref [] in
  let h0, l0 = cache_totals () in
  let gc0 = Gc.quick_stat () in
  Spans.enabled := traced;
  let t_pass = Clock.now_ns () in
  Array.iteri
    (fun i k ->
       let op = ops.(k) in
       Spans.current_op := (pass * n) + k;
       let t0 = Clock.now_ns () in
       let r = Spans.wrap root (fun () -> guarded op) in
       samples.(i) <- Clock.now_ns () - t0;
       match r with
       | None -> ()
       | Some why -> failures := (op.label, why) :: !failures)
    order;
  let wall_ns = Clock.now_ns () - t_pass in
  Spans.enabled := false;
  let gc1 = Gc.quick_stat () in
  let h1, l1 = cache_totals () in
  { traced;
    wall_ns;
    samples_ns = samples;
    order;
    failures = List.rev !failures;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    cache_hits = h1 - h0;
    cache_lookups = l1 - l0 }

(* Run passes until [seconds] have elapsed and, untraced, at least
   [min_samples] ops were timed; traced, until at least one pass of
   each kind ran.  Timed passes are numbered from 1: pass 0's order is
   the warm-up's. *)
let run ~root ~seed ~seconds ~trace (ops : op array) : pass list =
  if Array.length ops = 0 then invalid_arg "Harness.run: no ops";
  let t0 = Clock.now_ns () in
  let rec loop pass acc =
    let traced = trace && pass mod 2 = 0 in
    let acc = run_pass ~root ~seed ~pass ~traced ops :: acc in
    let untraced = List.filter (fun p -> not p.traced) acc in
    let enough =
      if trace then List.length untraced < List.length acc
      else
        List.fold_left (fun n p -> n + Array.length p.samples_ns) 0 untraced
        >= min_samples
    in
    if Clock.since_s t0 >= seconds && enough then List.rev acc
    else loop (pass + 1) acc
  in
  loop 1 []

(* Untraced samples grouped by op index. *)
let samples_by_op (passes : pass list) n =
  let by_op = Array.make n [] in
  List.iter
    (fun p ->
       if not p.traced then
         Array.iteri (fun i k -> by_op.(k) <- p.samples_ns.(i) :: by_op.(k)) p.order)
    passes;
  by_op

(* What a workload's per-layer report is computed from: the traced
   passes' spans, summarised per name, and the untraced passes' wall. *)
type layer_ctx = {
  by_name : (string, int * int) Hashtbl.t;  (* self ns, calls *)
  traced_passes : int;
  untraced_passes : int;
  untraced_s : float;
}

(* Self seconds per traced pass of the spans named [name]. *)
let self_s ctx name =
  match Hashtbl.find_opt ctx.by_name name with
  | Some (ns, _) -> Clock.s_of_ns ns /. float_of_int ctx.traced_passes
  | None -> 0.0

(* Self seconds and calls per traced pass of the spans "<prefix>.<e>"
   whose entry point [e] satisfies [sel]. *)
let sum_entries ctx prefix sel =
  let pre = prefix ^ "." in
  let lp = String.length pre in
  let ns, calls =
    Hashtbl.fold
      (fun name (ns, calls) (s, c) ->
         if String.length name > lp && String.sub name 0 lp = pre
            && sel (String.sub name lp (String.length name - lp))
         then (s + ns, c + calls)
         else (s, c))
      ctx.by_name (0, 0)
  in
  let per = float_of_int ctx.traced_passes in
  (Clock.s_of_ns ns /. per, float_of_int calls /. per)
