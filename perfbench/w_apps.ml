(* Workload [apps]: the paper's evaluation itself (§6, Figures 7-8).

   One op is one run of one suite application in one of the four
   configurations: original OpenCL and OpenCL-on-CUDA wrappers for every
   OpenCL app, original CUDA and translated CUDA-on-OpenCL for every CUDA
   app expected to translate.  Nearly all host time here is simulated
   kernel execution, so this is where execution-engine changes show.

   Set-up runs every op once (the warm-up pass) with the metrics-only
   trace sink: that fills the build, IR and plan caches and records, per
   op, the simulated time, the output and the simulated-event counts the
   timed passes are checked against. *)

open Bridge.Framework

let root = "suite.op"

type config = Ocl_native | Ocl_on_cuda | Cuda_native | Cuda_on_cl

let config_name = function
  | Ocl_native -> "opencl"
  | Ocl_on_cuda -> "cl_on_cuda"
  | Cuda_native -> "cuda"
  | Cuda_on_cl -> "cuda_on_cl"

(* Simulated-event counts of one op, summed over its launches. *)
type counts = {
  launches : int;
  sim_ops : int;
  gmem_transactions : int;
  smem_transactions : int;
  kernel_sim_ns : float;
}

let zero =
  { launches = 0; sim_ops = 0; gmem_transactions = 0; smem_transactions = 0;
    kernel_sim_ns = 0.0 }

let add a b =
  { launches = a.launches + b.launches;
    sim_ops = a.sim_ops + b.sim_ops;
    gmem_transactions = a.gmem_transactions + b.gmem_transactions;
    smem_transactions = a.smem_transactions + b.smem_transactions;
    kernel_sim_ns = a.kernel_sim_ns +. b.kernel_sim_ns }

let counts_of (ms : Trace.Metrics.t list) =
  List.fold_left
    (fun c (m : Trace.Metrics.t) ->
       add c
         { launches = 1;
           sim_ops = Trace.Metrics.total_ops m;
           gmem_transactions = m.m_gmem_transactions;
           smem_transactions = m.m_smem_transactions;
           kernel_sim_ns = m.m_sim_ns })
    zero ms

(* --- traced variants of the four configurations ------------------- *)

module Native_t =
  Timed_api.Make (struct let prefix = "opencl" end) (Bridge.Cl_api.Native)

module On_cuda_t =
  Timed_api.Make (struct let prefix = "core.cl_on_cuda" end)
    (Bridge.Cl_on_cuda.Api)

(* [run_app_native] / [run_app_on_cuda] with the API behind the timing
   functor; the run record is derived exactly as those functions do. *)
let app_native_traced (app : ocl_app) =
  let module C = Bridge.Cl_api.Native in
  let c = C.make (device_of Titan_opencl) in
  let out = app.oa_run (Clctx ((module Native_t), c)) in
  { r_output = out; r_time_ns = C.time_ns c -. C.build_time_ns c }

let app_on_cuda_traced (app : ocl_app) =
  let module C = Bridge.Cl_on_cuda.Api in
  let c = C.make (device_of Titan_cuda) in
  let out = app.oa_run (Clctx ((module On_cuda_t), c)) in
  { r_output = out; r_time_ns = C.time_ns c -. C.build_time_ns c }

let cuda_native_span = Spans.intern "core.cuda_native.run"
let cuda_on_cl_span = Spans.intern "core.cuda_on_cl.run"

(* --- the op table ---------------------------------------------------- *)

type item = {
  i_label : string;
  i_config : config;
  i_partner : int;  (* index of the same app in the other configuration *)
  i_run : unit -> run;  (* the public entry point, untraced *)
  i_traced : unit -> run;
}

type expected = { e_run : run; e_counts : counts }

type t = {
  items : item array;
  expect : (expected, string) result array;  (* warm-up outcome per item *)
  cuda_sources : string list;  (* sources [run_cuda_native] parses *)
}

let items () : item array * string list =
  let ocl =
    List.concat_map
      (fun (a : ocl_app) ->
         [ (a.oa_name, Ocl_native,
            (fun () -> run_app_native a ()),
            (fun () -> app_native_traced a));
           (a.oa_name, Ocl_on_cuda,
            (fun () -> run_app_on_cuda a ()),
            (fun () -> app_on_cuda_traced a)) ])
      Suite.Registry.all_opencl
  in
  let translatable =
    List.filter
      (fun (c : Suite.Registry.cuda_app) -> c.cu_expect_translatable)
      Suite.Registry.all_cuda
  in
  let cuda =
    List.concat_map
      (fun (c : Suite.Registry.cuda_app) ->
         let src = c.cu_src in
         let xlat =
           match translate_cuda ~tex1d_texels:c.cu_tex1d_texels src with
           | Translated r -> Ok r
           | Failed fs ->
             Error
               ("translation failed: "
                ^ String.concat "; "
                    (List.map (fun f -> f.Xlat.Feature.f_construct) fs))
         in
         let translated () =
           match xlat with Ok r -> run_translated_cuda r | Error why -> failwith why
         in
         [ (c.cu_name, Cuda_native,
            (fun () -> run_cuda_native src),
            (fun () -> Spans.wrap cuda_native_span (fun () -> run_cuda_native src)));
           (c.cu_name, Cuda_on_cl, translated,
            (fun () -> Spans.wrap cuda_on_cl_span translated)) ])
      translatable
  in
  let rows = Array.of_list (ocl @ cuda) in
  (* pairs are adjacent: (2k, 2k+1) *)
  let items =
    Array.mapi
      (fun i (name, config, run, traced) ->
         { i_label = name ^ "/" ^ config_name config;
           i_config = config;
           i_partner = i lxor 1;
           i_run = run;
           i_traced = traced })
      rows
  in
  (items, List.map (fun (c : Suite.Registry.cuda_app) -> c.cu_src) translatable)

let with_metrics f =
  Trace.Sink.enable ~capacity:16 ~spans:false ();
  Fun.protect ~finally:Trace.Sink.disable @@ fun () ->
  let r = f () in
  if Trace.Sink.dropped_metrics () > 0 then
    failwith "metrics sink overflowed; launch counts incomplete";
  (r, counts_of (Trace.Sink.metrics ()))

let setup ~seed =
  let items, cuda_sources = items () in
  let expect = Array.make (Array.length items) (Error "not run") in
  Array.iter
    (fun k ->
       expect.(k) <-
         (match with_metrics items.(k).i_run with
          | r, c -> Ok { e_run = r; e_counts = c }
          | exception e -> Error ("warm-up: " ^ Printexc.to_string e)))
    (Order.permutation ~seed ~pass:0 (Array.length items));
  { items; expect; cuda_sources }

(* The correctness rule for one timed op: same simulated time as in the
   warm-up pass, and output agreeing with the other configuration of the
   same app. *)
let check t k (r : run) =
  match t.expect.(k), t.expect.(t.items.(k).i_partner) with
  | Error why, _ -> Some why
  | _, Error why -> Some ("partner " ^ why)
  | Ok e, Ok p ->
    if r.r_time_ns <> e.e_run.r_time_ns then
      Some
        (Printf.sprintf "simulated time %.17g ns, warm-up %.17g ns"
           r.r_time_ns e.e_run.r_time_ns)
    else if not (outputs_agree r.r_output p.e_run.r_output) then
      Some "output disagrees with the other configuration"
    else None

let ops t : Harness.op array =
  Array.mapi
    (fun k it ->
       { Harness.label = it.i_label;
         run =
           (fun () ->
              check t k (if !Spans.enabled then it.i_traced () else it.i_run ())) })
    t.items

(* --- per-layer metrics ------------------------------------------------ *)

let memcpy_entries = [ "write_buffer"; "read_buffer"; "read_image" ]

let pass_counts t sel =
  let acc = ref zero in
  Array.iteri
    (fun k it ->
       match t.expect.(k) with
       | Ok e when sel it.i_config -> acc := add !acc e.e_counts
       | _ -> ())
    t.items;
  !acc

(* [run_cuda_native] re-parses its source on every run; that parse is
   timed here by calling the parser on the same sources, best of three
   rounds over the corpus. *)
let parse_cuda_s t =
  let round () =
    let t0 = Clock.now_ns () in
    List.iter
      (fun src -> ignore (Minic.Parser.program ~dialect:Minic.Parser.Cuda src))
      t.cuda_sources;
    Clock.now_ns () - t0
  in
  Clock.s_of_ns (List.fold_left min max_int [ round (); round (); round () ])

let layers t (ctx : Harness.layer_ctx) =
  let api prefix =
    let secs sel = fst (Harness.sum_entries ctx prefix sel) in
    let other e =
      e <> "enqueue_nd_range" && e <> "build_program"
      && not (List.mem e memcpy_entries)
    in
    [ (prefix ^ ".enqueue_nd_range_s", secs (( = ) "enqueue_nd_range"));
      (prefix ^ ".memcpy_s", secs (fun e -> List.mem e memcpy_entries));
      (prefix ^ ".build_program_s", secs (( = ) "build_program"));
      (prefix ^ ".api_other_s", secs other);
      (prefix ^ ".api_calls", snd (Harness.sum_entries ctx prefix (fun _ -> true))) ]
  in
  let native = api "opencl" and wrapped = api "core.cl_on_cuda" in
  let all = pass_counts t (fun _ -> true) in
  let ocl = pass_counts t (fun c -> c = Ocl_native || c = Ocl_on_cuda) in
  let enqueue_s =
    List.assoc "opencl.enqueue_nd_range_s" native
    +. List.assoc "core.cl_on_cuda.enqueue_nd_range_s" wrapped
  in
  native @ wrapped
  @ [ ("suite.host_self_s", Harness.self_s ctx root);
      ("core.cuda_native.run_s", Harness.self_s ctx "core.cuda_native.run");
      ("core.cuda_on_cl.run_s", Harness.self_s ctx "core.cuda_on_cl.run");
      ("minic.parse_cuda_s", parse_cuda_s t);
      ("gpusim.host_ns_per_sim_op",
       if ocl.sim_ops = 0 then 0.0
       else enqueue_s *. 1e9 /. float_of_int ocl.sim_ops);
      ("gpusim.launches", float_of_int all.launches);
      ("gpusim.sim_ops", float_of_int all.sim_ops);
      ("gpusim.gmem_transactions", float_of_int all.gmem_transactions);
      ("gpusim.smem_transactions", float_of_int all.smem_transactions);
      ("gpusim.kernel_sim_ns", all.kernel_sim_ns);
      ("gpusim.sim_mops_per_s",
       float_of_int (all.sim_ops * ctx.untraced_passes)
       /. ctx.untraced_s /. 1e6) ]
