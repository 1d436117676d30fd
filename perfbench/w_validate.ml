(* Workload [validate]: layered translation validation of every corpus
   source (Xlat_validate.Layered, layers L0-L3, both directions).  It
   drives the simulator through many small launches with an observer
   installed, a path the default runs never take.  One op is one source;
   its verdicts must match the warm-up pass, and the corpus as a whole
   must stay at [expected] equivalent / unsupported / divergent kernels. *)

let root = "validate.op"

let expected = (99, 7, 0)

type tally = {
  equivalent : int;
  unsupported : int;
  divergent : int;
  layers_run : int;
  layers_vacuous : int;
}

let zero =
  { equivalent = 0; unsupported = 0; divergent = 0; layers_run = 0;
    layers_vacuous = 0 }

let add a b =
  { equivalent = a.equivalent + b.equivalent;
    unsupported = a.unsupported + b.unsupported;
    divergent = a.divergent + b.divergent;
    layers_run = a.layers_run + b.layers_run;
    layers_vacuous = a.layers_vacuous + b.layers_vacuous }

let tally_of outcomes =
  let open Xlat_validate.Layered in
  List.fold_left
    (fun t (_, outcome) ->
       match outcome with
       | Unsupported _ -> { t with unsupported = t.unsupported + 1 }
       | Checked r ->
         let run, vac =
           List.fold_left
             (fun (run, vac) (_, st) ->
                match st with Vacuous _ -> (run, vac + 1) | _ -> (run + 1, vac))
             (0, 0) r.rp_layers
         in
         let t = { t with layers_run = t.layers_run + run;
                          layers_vacuous = t.layers_vacuous + vac } in
         if r.rp_diverged = None then { t with equivalent = t.equivalent + 1 }
         else { t with divergent = t.divergent + 1 })
    zero outcomes

let s_ocl = Spans.wrap (Spans.intern "validate.check_opencl")
let s_cuda = Spans.wrap (Spans.intern "validate.check_cuda")

let check (s : Corpus.source) =
  match s.s_dialect with
  | `Opencl ->
    s_ocl (fun () -> Xlat_validate.Layered.check_opencl_source s.s_text)
  | `Cuda -> s_cuda (fun () -> Xlat_validate.Layered.check_cuda_source s.s_text)

(* Verdict string per kernel, the unit a timed op is compared on. *)
let verdicts outcomes =
  List.map
    (fun (k, o) ->
       k ^ "="
       ^
       match o with
       | Xlat_validate.Layered.Unsupported _ -> "unsupported"
       | Xlat_validate.Layered.Checked r -> Xlat_validate.Layered.verdict_string r)
    outcomes

type t = {
  sources : Corpus.source array;
  expect : ((string list * tally), string) result array;
  corpus_ok : string option;  (* None when the totals match [expected] *)
}

let run_one s =
  match check s with
  | Ok outcomes -> Ok (verdicts outcomes, tally_of outcomes)
  | Error why -> Error why
  | exception e -> Error (Printexc.to_string e)

let setup ~seed (corpus : Corpus.source list) =
  let sources = Array.of_list corpus in
  let expect = Array.make (Array.length sources) (Error "not run") in
  Array.iter
    (fun k -> expect.(k) <- run_one sources.(k))
    (Order.permutation ~seed ~pass:0 (Array.length sources));
  let total =
    Array.fold_left
      (fun acc r -> match r with Ok (_, t) -> add acc t | Error _ -> acc)
      zero expect
  in
  let got = (total.equivalent, total.unsupported, total.divergent) in
  let corpus_ok =
    if got = expected then None
    else
      let e, u, d = got and e', u', d' = expected in
      Some
        (Printf.sprintf "corpus verdicts %d/%d/%d, expected %d/%d/%d" e u d
           e' u' d')
  in
  { sources; expect; corpus_ok }

let ops t : Harness.op array =
  Array.mapi
    (fun k (s : Corpus.source) ->
       { Harness.label = s.s_label;
         run =
           (fun () ->
              match run_one s, t.expect.(k), t.corpus_ok with
              | Error why, _, _ -> Some why
              | _, Error why, _ -> Some ("warm-up: " ^ why)
              | _, _, Some why -> Some why
              | Ok (v, tl), Ok (v', _), None ->
                if tl.divergent > 0 then Some "translation diverges"
                else if v <> v' then Some "verdicts differ from warm-up"
                else None) })
    t.sources

let layers t (ctx : Harness.layer_ctx) =
  let total =
    Array.fold_left
      (fun acc r -> match r with Ok (_, t) -> add acc t | Error _ -> acc)
      zero t.expect
  in
  [ ("validate.check_opencl_s", Harness.self_s ctx "validate.check_opencl");
    ("validate.check_cuda_s", Harness.self_s ctx "validate.check_cuda");
    ("validate.layers_run", float_of_int total.layers_run);
    ("validate.layers_vacuous", float_of_int total.layers_vacuous);
    ("validate.equivalent", float_of_int total.equivalent);
    ("validate.unsupported", float_of_int total.unsupported);
    ("validate.divergent", float_of_int total.divergent) ]
