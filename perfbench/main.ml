(* The repository's benchmark; BENCHMARK.json at the repository root
   describes it.  Run from the root through perfbench/run.sh:

     bash perfbench/run.sh --workload apps|translate|validate \
       --seed N --seconds S --trace 0|1

   With --trace 0 the last line of standard output is the end-to-end
   result, with --trace 1 the per-layer one.  The line before it is the
   full record: configuration metadata, sample counts, fail ratio and the
   first failures.  The record, with per-op medians, and a traced run's
   spans are also written under .perfbench-out/. *)

module J = Trace.Json

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* --- command line ------------------------------------------------------ *)

let workload = ref ""
let seed = ref (-1)
let seconds = ref (-1)
let trace = ref (-1)
let git_commit = ref "unknown"
let spec_file = "BENCHMARK.json"
let out_dir = ".perfbench-out"

let args =
  [ ("--workload", Arg.Set_string workload, "apps | translate | validate");
    ("--seed", Arg.Set_int seed, "N  workload seed (op order)");
    ("--seconds", Arg.Set_int seconds, "S  timed window, at least");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
    ("--git-commit", Arg.Set_string git_commit, "SHA  recorded in the metadata") ]

(* --- the metric lists of BENCHMARK.json ---------------------------------- *)

(* (name, unit) of every metric listed under [key]; the output carries
   exactly these. *)
let metric_specs key =
  let doc =
    match In_channel.with_open_bin spec_file In_channel.input_all with
    | s -> (try J.of_string s with J.Parse_error e -> die "%s: %s" spec_file e)
    | exception Sys_error e -> die "%s" e
  in
  match J.member key doc with
  | Some (J.List ms) ->
    List.map
      (fun m ->
         match J.member "name" m, J.member "unit" m with
         | Some (J.Str n), Some (J.Str u) -> (n, u)
         | _ -> die "%s: malformed %s entry" spec_file key)
      ms
  | _ -> die "%s: no %s list" spec_file key

(* --- workloads ----------------------------------------------------------- *)

type prepared = {
  root : string;
  ops : Harness.op array;
  layers : Harness.layer_ctx -> (string * float) list;
}

let prepare = function
  | "apps" ->
    let t = W_apps.setup ~seed:!seed in
    { root = W_apps.root; ops = W_apps.ops t; layers = W_apps.layers t }
  | "translate" ->
    let t = W_translate.setup ~seed:!seed (Corpus.load ()) in
    { root = W_translate.root; ops = W_translate.ops t;
      layers = W_translate.layers t }
  | "validate" ->
    let t = W_validate.setup ~seed:!seed (Corpus.load ()) in
    { root = W_validate.root; ops = W_validate.ops t;
      layers = W_validate.layers t }
  | w -> die "unknown workload %S (apps, translate, validate)" w

(* --- metrics -------------------------------------------------------------- *)

let sum_by f l = List.fold_left (fun a x -> a + f x) 0 l
let wall_s passes = Clock.s_of_ns (sum_by (fun (p : Harness.pass) -> p.wall_ns) passes)

let end_to_end ~setup_s passes =
  let samples =
    Array.concat (List.map (fun (p : Harness.pass) -> p.samples_ns) passes)
    |> Array.map Clock.ms_of_ns
  in
  let n = Array.length samples in
  let tail =
    match Stats.tail_permille n with
    | Some pm when pm >= 900 -> pm
    | _ -> die "%d samples: too few for a p90 with %d beyond it" n Stats.min_beyond
  in
  let sorted = Stats.sorted samples in
  ( [ ("setup_s", setup_s);
      ("op_ms_p50", Stats.median samples);
      ("op_ms_p90", Stats.percentile sorted 900);
      ("ops_per_s", float_of_int n /. wall_s passes);
      ("peak_rss_mb", Meta.peak_rss_mb ()) ],
    [ ("samples", J.Int n);
      ("tail_permille", J.Int tail);
      ("tail_ms", J.Float (Stats.percentile sorted tail)) ] )

(* Per-layer report: the workload's own layers, then the span coverage,
   the tracing overhead, and cache and GC figures per untraced pass. *)
let per_layer ~layers passes spans =
  let traced, untraced = List.partition (fun (p : Harness.pass) -> p.traced) passes in
  let nt = float_of_int (List.length traced)
  and nu = float_of_int (List.length untraced) in
  let self = Spans.self_ns spans in
  let covered = ref 0 in
  Array.iteri
    (fun i (s : Spans.span) -> if s.parent >= 0 then covered := !covered + self.(i))
    spans;
  let ctx =
    { Harness.by_name = Spans.by_name spans;
      traced_passes = List.length traced;
      untraced_passes = List.length untraced;
      untraced_s = wall_s untraced }
  in
  let median_wall l =
    Stats.median
      (Array.of_list (List.map (fun (p : Harness.pass) -> Clock.s_of_ns p.wall_ns) l))
  in
  let per_untraced f = float_of_int (sum_by f untraced) /. nu in
  let lookups = sum_by (fun (p : Harness.pass) -> p.cache_lookups) untraced in
  layers ctx
  @ [ ("trace.span_coverage", Clock.s_of_ns !covered /. wall_s traced);
      ("trace.overhead_ratio", (median_wall traced /. median_wall untraced) -. 1.0);
      ("trace.spans_per_pass", float_of_int (Array.length spans) /. nt);
      ("trace.build_cache_hit_ratio",
       if lookups = 0 then 0.0
       else
         float_of_int (sum_by (fun (p : Harness.pass) -> p.cache_hits) untraced)
         /. float_of_int lookups);
      ("trace.build_cache_lookups", per_untraced (fun p -> p.cache_lookups));
      ("gc.minor_mwords",
       List.fold_left (fun a (p : Harness.pass) -> a +. p.minor_words) 0.0 untraced
       /. nu /. 1e6);
      ("gc.major_collections", per_untraced (fun p -> p.major_collections)) ]

(* --- output ------------------------------------------------------------------ *)

let write_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let () =
  Arg.parse args (fun a -> die "unexpected argument %S" a)
    "bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1";
  if !workload = "" then die "--workload is required";
  if !seed < 0 then die "--seed N (N >= 0) is required";
  if !seconds < 1 then die "--seconds S (S >= 1) is required";
  if !trace <> 0 && !trace <> 1 then die "--trace 0|1 is required";
  let traced = !trace = 1 in
  let specs = metric_specs (if traced then "per_layer" else "end_to_end") in
  let meta =
    Meta.collect ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:traced
      ~git_commit:!git_commit
  in
  let w = prepare !workload in
  let setup_s = Clock.since_s Clock.process_start in
  let passes =
    Harness.run ~root:(Spans.intern w.root) ~seed:!seed
      ~seconds:(float_of_int !seconds) ~trace:traced w.ops
  in
  let spans = Spans.spans () in
  let values, details =
    if traced then (per_layer ~layers:w.layers passes spans, [])
    else end_to_end ~setup_s passes
  in
  List.iter
    (fun (n, _) ->
       if not (List.mem_assoc n specs) then die "metric %s is not in %s" n spec_file)
    values;
  (* every metric of the spec, once; a layer the workload does not load
     reads 0 *)
  let metrics =
    J.Obj
      (List.map
         (fun (name, unit) ->
            let v = Option.value (List.assoc_opt name values) ~default:0.0 in
            if not (Float.is_finite v) then die "metric %s is not finite" name;
            (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
         specs)
  in
  let failures = List.concat_map (fun (p : Harness.pass) -> p.failures) passes in
  let attempted = sum_by (fun (p : Harness.pass) -> Array.length p.samples_ns) passes in
  let failed = List.length failures in
  let record =
    [ ("meta", meta);
      ("setup_s", J.Float setup_s);
      ("pass_walls_s",
       J.List (List.map (fun (p : Harness.pass) -> J.Float (Clock.s_of_ns p.wall_ns)) passes));
      ("traced_passes",
       J.Int (List.length (List.filter (fun (p : Harness.pass) -> p.traced) passes)));
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ("fail_ratio", J.Float (float_of_int failed /. float_of_int attempted));
      ("failures",
       J.List
         (List.filteri (fun i _ -> i < 20) failures
          |> List.map (fun (l, why) -> J.Str (l ^ ": " ^ why)))) ]
    @ details
    @ [ ("metrics", metrics) ]
  in
  let by_op = Harness.samples_by_op passes (Array.length w.ops) in
  let op_ms_median =
    J.Obj
      (Array.to_list
         (Array.mapi
            (fun k (op : Harness.op) ->
               ( op.label,
                 J.Float
                   (Stats.median
                      (Array.of_list (List.map Clock.ms_of_ns by_op.(k)))) ))
            w.ops))
  in
  let stem = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir !workload !seed !trace in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  write_file (stem ^ ".json") (fun oc ->
      output_string oc
        (J.to_string_pretty (J.Obj (record @ [ ("op_ms_median", op_ms_median) ]))));
  if traced then write_file (stem ^ ".spans.tsv") (fun oc -> Spans.write oc spans);
  List.iteri
    (fun i (l, why) -> if i < 20 then Printf.eprintf "perfbench: FAILED %s: %s\n" l why)
    failures;
  print_endline (J.to_string (J.Obj record));
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (failed = 0));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", metrics) ]))
