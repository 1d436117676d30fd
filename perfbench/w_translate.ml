(* Workload [translate]: every corpus source taken cold from source text
   to launch-ready code, calling each layer directly and bypassing
   [Trace.Build_cache]:

     parse -> feature check -> translate -> print the translated device
     program and re-parse it -> Ir.Emit.make -> Lockstep.plan_for per kernel

   No kernel executes, so an execution-engine change must read unchanged
   here while a front-end or IR change shows.  One op is one source. *)

let root = "translate.op"

(* Deterministic facts of one op, checked against the warm-up pass. *)
type facts = {
  lowered : int;    (* functions Ir.Emit compiled from IR *)
  fallback : int;   (* functions left to Vm.Compile *)
  rewrites : int;   (* IR pass rewrites, summed over functions *)
  eligible : int;   (* kernels with a lockstep plan *)
  fused : int;      (* fused regions over those plans *)
}

let span name = Spans.wrap (Spans.intern name)
let s_parse = span "minic.parse"
let s_feature = span "translate.feature_check"
let s_ocl_to_cuda = span "translate.ocl_to_cuda"
let s_cuda_to_ocl = span "translate.cuda_to_ocl"
let s_print = span "minic.print"
let s_emit = span "ir.emit_make"
let s_plan = span "gpusim.plan_for"

let parse dialect text = s_parse (fun () -> Minic.Parser.program ~dialect text)

let max_1d_image = fst Gpusim.Device.titan.Gpusim.Device.max_image2d

(* Source to launch-ready code; [Error] when a layer refuses a source
   the corpus expects to translate. *)
let pipeline (s : Corpus.source) : (facts, string) result =
  let translated =
    match s.s_dialect with
    | `Opencl ->
      let prog = parse Minic.Parser.OpenCL s.s_text in
      let findings =
        s_feature (fun () ->
            Xlat.Feature.check_opencl_app
              ~host_uses_subdevices:s.s_uses_subdevices)
      in
      if findings <> [] then Error "feature check refused the source"
      else
        let r = s_ocl_to_cuda (fun () -> Xlat.Ocl_to_cuda.translate prog) in
        let text =
          s_print (fun () ->
              Minic.Pretty.program_str Minic.Pretty.Cuda r.Xlat.Ocl_to_cuda.cuda_prog)
        in
        Ok (Minic.Parser.Cuda, text)
    | `Cuda ->
      let prog = parse Minic.Parser.Cuda s.s_text in
      let findings =
        s_feature (fun () ->
            Xlat.Feature.check_cuda_app ~tex1d_texels:s.s_tex1d_texels
              ~max_1d_image ~src:s.s_text (Some prog))
      in
      if findings <> [] then Error "feature check refused the source"
      else
        let r = s_cuda_to_ocl (fun () -> Xlat.Cuda_to_ocl.translate prog) in
        let text = s_print (fun () -> Xlat.Cuda_to_ocl.cl_source r) in
        Ok (Minic.Parser.OpenCL, text)
  in
  match translated with
  | Error _ as e -> e
  | Ok (dialect, text) ->
    (match parse dialect text with
     | exception e -> Error ("translated text does not re-parse: " ^ Printexc.to_string e)
     | prog ->
       let est =
         s_emit (fun () ->
             Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty
               ~cfg:!Ir.Pipeline.selected prog)
       in
       let lowered = ref 0 and fallback = ref 0 and rewrites = ref 0 in
       List.iter
         (function
           | Minic.Ast.TFunc f ->
             (match Ir.Emit.ir est f.Minic.Ast.fn_name with
              | Some (Ok _) -> incr lowered
              | Some (Error _) -> incr fallback
              | None -> ());
             (match Ir.Emit.stats est f.Minic.Ast.fn_name with
              | Some st ->
                List.iter (fun (_, n) -> rewrites := !rewrites + n)
                  (Ir.Passes.stats_list st)
              | None -> ())
           | _ -> ())
         prog;
       let eligible = ref 0 and fused = ref 0 in
       List.iter
         (fun (k : Minic.Ast.func) ->
            match
              s_plan (fun () ->
                  Gpusim.Lockstep.plan_for est ~name:k.Minic.Ast.fn_name ~warp:32)
            with
            | Ok p ->
              incr eligible;
              fused := !fused + p.Gpusim.Lockstep.p_fused
            | Error _ -> ())
         (Minic.Ast.kernels prog);
       Ok { lowered = !lowered; fallback = !fallback; rewrites = !rewrites;
            eligible = !eligible; fused = !fused })

type t = {
  sources : Corpus.source array;
  expect : (facts, string) result array;
}

let run_guarded s =
  match pipeline s with
  | r -> r
  | exception e -> Error (Printexc.to_string e)

let setup ~seed (corpus : Corpus.source list) =
  let sources = Array.of_list corpus in
  let expect = Array.make (Array.length sources) (Error "not run") in
  Array.iter
    (fun k -> expect.(k) <- run_guarded sources.(k))
    (Order.permutation ~seed ~pass:0 (Array.length sources));
  { sources; expect }

let ops t : Harness.op array =
  Array.mapi
    (fun k (s : Corpus.source) ->
       { Harness.label = s.s_label;
         run =
           (fun () ->
              match pipeline s, t.expect.(k) with
              | Error why, _ -> Some why
              | Ok _, Error why -> Some ("warm-up: " ^ why)
              | Ok f, Ok e ->
                if f = e then None else Some "IR/plan facts differ from warm-up") })
    t.sources

let layers t (ctx : Harness.layer_ctx) =
  let sum sel =
    Array.fold_left
      (fun n r -> match r with Ok f -> n + sel f | Error _ -> n)
      0 t.expect
    |> float_of_int
  in
  [ ("minic.parse_s", Harness.self_s ctx "minic.parse");
    ("translate.feature_check_s", Harness.self_s ctx "translate.feature_check");
    ("translate.ocl_to_cuda_s", Harness.self_s ctx "translate.ocl_to_cuda");
    ("translate.cuda_to_ocl_s", Harness.self_s ctx "translate.cuda_to_ocl");
    ("minic.print_s", Harness.self_s ctx "minic.print");
    ("ir.emit_make_s", Harness.self_s ctx "ir.emit_make");
    ("gpusim.plan_for_s", Harness.self_s ctx "gpusim.plan_for");
    ("ir.functions_lowered", sum (fun f -> f.lowered));
    ("ir.functions_fallback", sum (fun f -> f.fallback));
    ("ir.pass_rewrites", sum (fun f -> f.rewrites));
    ("gpusim.lockstep_eligible", sum (fun f -> f.eligible));
    ("gpusim.fused_regions", sum (fun f -> f.fused)) ]
