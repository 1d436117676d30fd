(* Backend equivalence and build-cache tests.

   One compiled path: every [Compiled] launch runs closures emitted from
   the IR, and functions the lowering rejects run on the tree-walking
   interpreter, the reference oracle.  The differential property here is
   three-way — IR with no passes, IR with every pass, interpreter — over
   randomly parameterised kernels: identical result bytes everywhere,
   and with no passes the full Counters.t as well.  Directed cases cover
   the IR's edges: template specialisations, observer launches and
   helpers the lowering rejects.  The build-cache tests pin the
   content-hash cache contract: hit on identical source, miss after any
   change, failures never cached. *)

open Minic.Ast

(* ------------------------------------------------------------------ *)
(* Differential property: IR(none) vs IR(all) vs Interp               *)
(* ------------------------------------------------------------------ *)

(* Kernel template over generated constants and operators; exercises
   specials, int and float arithmetic, __local traffic with a barrier,
   control flow and a device-function call. *)
let kernel_src ~c1 ~c2 ~c3 ~op1 ~op2 =
  Printf.sprintf
    {|
int helper(int a, int b) {
  if (a > b) { return a - b; }
  return a %s b;
}

__kernel void k(__global int* out, __global float* fout, int n) {
  int i = get_global_id(0);
  int t = get_local_id(0);
  __local int tmp[32];
  tmp[t] = i * %d + t;
  barrier(CLK_LOCAL_MEM_FENCE);
  int acc = %d;
  for (int j = 0; j < %d; j++) {
    acc = acc %s tmp[(t + j) %% 8];
  }
  if ((i & 1) == 0) { acc = helper(acc, %d); }
  if (i < n) {
    out[i] = acc;
    fout[i] = (float)acc * 0.5f + (float)i;
  }
}
|}
    op1 c1 c2 c3 op2 c1

let with_ref r v f =
  let saved = !r in
  r := v;
  Fun.protect ~finally:(fun () -> r := saved) f

let ptr addr elt =
  Gpusim.Exec.Arg_val
    (Vm.Interp.tv
       (Vm.Value.VInt (Vm.Value.make_ptr AS_global addr))
       (TPtr (TScalar elt)))

let run_once backend ~src ~gws ~lws =
  with_ref Gpusim.Exec.backend backend @@ fun () ->
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let dev =
    Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
  in
  let host = Vm.Memory.create "host" in
  let k = Option.get (find_function prog "k") in
  let out = Vm.Memory.alloc dev.Gpusim.Device.global ~align:256 (gws * 4) in
  let fout = Vm.Memory.alloc dev.Gpusim.Device.global ~align:256 (gws * 4) in
  let stats =
    Gpusim.Exec.launch ~dev ~prog ~globals:(Hashtbl.create 4) ~host_arena:host
      ~kernel:k
      ~cfg:
        { global_size = [| gws; 1; 1 |];
          local_size = [| lws; 1; 1 |];
          dyn_shared = 0 }
      ~args:
        [ ptr out Int; ptr fout Float;
          Gpusim.Exec.Arg_val (Vm.Interp.tint gws) ]
      ()
  in
  let bytes =
    Bytes.to_string (Vm.Memory.load_bytes dev.Gpusim.Device.global out (gws * 4))
    ^ Bytes.to_string
        (Vm.Memory.load_bytes dev.Gpusim.Device.global fout (gws * 4))
  in
  (bytes, stats.Gpusim.Exec.counters)

let counter_fields (c : Gpusim.Counters.t) =
  let open Gpusim.Counters in
  [ ("n_items", c.n_items); ("n_groups", c.n_groups);
    ("ops_int", c.ops_int); ("ops_float", c.ops_float);
    ("ops_double", c.ops_double); ("ops_special", c.ops_special);
    ("ops_branch", c.ops_branch); ("barriers", c.barriers);
    ("gmem_transactions", c.gmem_transactions);
    ("gmem_accesses", c.gmem_accesses); ("gmem_bytes", c.gmem_bytes);
    ("smem_transactions", c.smem_transactions);
    ("smem_accesses", c.smem_accesses);
    ("smem_bank_conflict_extra", c.smem_bank_conflict_extra);
    ("private_accesses", c.private_accesses) ]

let check_backends_agree ~src ~gws ~lws =
  (* counter identity is between the interpreter and the IR with no
     passes; the passes legitimately change op counts, so the optimized
     run is held to byte-identical buffers only *)
  let b_out, b_ctr =
    Ir.Pipeline.with_passes Ir.Pipeline.none (fun () ->
        run_once Gpusim.Exec.Compiled ~src ~gws ~lws)
  in
  let i_out, i_ctr = run_once Gpusim.Exec.Interp ~src ~gws ~lws in
  let o_out, _ =
    Ir.Pipeline.with_passes Ir.Pipeline.all (fun () ->
        run_once Gpusim.Exec.Compiled ~src ~gws ~lws)
  in
  b_out = i_out && o_out = i_out
  && counter_fields b_ctr = counter_fields i_ctr

let arb_params =
  let gen =
    QCheck.Gen.(
      map
        (fun (c1, c2, c3, o1, o2, lw, m) -> (c1, c2, c3, o1, o2, lw, m))
        (tup7 (int_range (-50) 50) (int_range (-10) 10) (int_range 0 8)
           (int_range 0 4) (int_range 0 2) (int_range 0 2) (int_range 1 3)))
  in
  let print (c1, c2, c3, o1, o2, lw, m) =
    Printf.sprintf "c1=%d c2=%d c3=%d op1=%d op2=%d lws#%d mult=%d" c1 c2 c3
      o1 o2 lw m
  in
  QCheck.make ~print gen

let prop_backends_agree =
  QCheck.Test.make ~count:40 ~name:"compiled and interp backends agree"
    arb_params (fun (c1, c2, c3, o1, o2, lw, m) ->
        let op1 = [| "+"; "-"; "*"; "|"; "^" |].(o1) in
        let op2 = [| "+"; "-"; "^" |].(o2) in
        let lws = [| 8; 16; 32 |].(lw) in
        let src = kernel_src ~c1 ~c2 ~c3 ~op1 ~op2 in
        check_backends_agree ~src ~gws:(lws * m) ~lws)

(* Deterministic end-to-end check through the wrapper-library path: the
   same OpenCL application, run on the OpenCL-on-CUDA stack, prints the
   same checksum under both backends. *)
let app_agrees_across_backends () =
  let app = List.hd Suite.Registry.rodinia_opencl in
  let under backend =
    with_ref Gpusim.Exec.backend backend @@ fun () ->
    (Bridge.Framework.run_app_on_cuda app ()).Bridge.Framework.r_output
  in
  Alcotest.(check string)
    (app.Bridge.Framework.oa_name ^ " output")
    (under Gpusim.Exec.Interp)
    (under Gpusim.Exec.Compiled)

(* ------------------------------------------------------------------ *)
(* Directed: the IR's edges                                            *)
(* ------------------------------------------------------------------ *)

(* Launch [kernel] over one int buffer of [n] elements (initialised to
   its indices) plus [extra] arguments; returns the buffer bytes, the
   counters and the per-site attribution, and the engine outcome. *)
let launch_buf ?observer ~backend ~prog ~kernel ~n ~lws extra =
  with_ref Gpusim.Exec.backend backend @@ fun () ->
  with_ref Gpusim.Exec.domains 1 @@ fun () ->
  let dev =
    Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.cuda_on_nvidia
  in
  let buf = Vm.Memory.alloc dev.Gpusim.Device.global ~align:256 (n * 4) in
  for j = 0 to n - 1 do
    Vm.Memory.store_int dev.Gpusim.Device.global (buf + (j * 4)) 4
      (Int64.of_int j)
  done;
  let stats =
    Gpusim.Exec.launch ~dev ~prog ~globals:(Hashtbl.create 4)
      ~host_arena:(Vm.Memory.create "host") ?observer ~kernel
      ~cfg:
        { global_size = [| n; 1; 1 |];
          local_size = [| lws; 1; 1 |];
          dyn_shared = 0 }
      ~args:(ptr buf Int :: extra) ()
  in
  ( ( Bytes.to_string
        (Vm.Memory.load_bytes dev.Gpusim.Device.global buf (n * 4)),
      counter_fields stats.Gpusim.Exec.counters,
      Option.map Gpusim.Attr.to_list stats.Gpusim.Exec.attr ),
    stats.Gpusim.Exec.engine )

let same_as ~reference label (b, c, a) =
  let rb, rc, ra = reference in
  Alcotest.(check string) (label ^ ": buffers") rb b;
  Alcotest.(check (list (pair string int))) (label ^ ": counters") rc c;
  Alcotest.(check bool) (label ^ ": attribution") true (ra = a)

let int_args = List.map (fun v -> Gpusim.Exec.Arg_val (Vm.Interp.tint v))

let template_src = {|
template <typename T>
__global__ void scale_shift(T* data, T s, T b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) data[i] = data[i] * s + b;
}
|}

(* A launcher specialises a templated kernel per launch
   (Minic.Specialize); the specialisation must lower to an IR wrapper —
   not fall back — and match the interpreter exactly. *)
let template_kernel_lowers () =
  let prog = Minic.Parser.program ~dialect:Minic.Parser.Cuda template_src in
  let tmpl = Option.get (find_function prog "scale_shift") in
  let kernel = Minic.Specialize.func tmpl [ TScalar Int ] in
  let est =
    Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty ~cfg:Ir.Pipeline.all prog
  in
  Alcotest.(check bool) "specialisation resolves to an IR wrapper" true
    (Ir.Emit.prepare est kernel <> None);
  Alcotest.(check bool) "and is cached under its mangled name" true
    (match Ir.Emit.ir est "scale_shift__int" with
     | Some (Ok _) -> true
     | _ -> false);
  let run backend =
    launch_buf ~backend ~prog ~kernel ~n:128 ~lws:64 (int_args [ 3; 7; 100 ])
  in
  same_as ~reference:(fst (run Gpusim.Exec.Interp)) "templated kernel"
    (fst
       (Ir.Pipeline.with_passes Ir.Pipeline.none (fun () ->
            run Gpusim.Exec.Compiled)));
  (* the launcher's own module cache holds the lowered specialisation:
     the lockstep engine plans it instead of reporting it unknown *)
  let _, engine =
    with_ref Gpusim.Exec.engine Gpusim.Exec.Lockstep (fun () ->
        Ir.Pipeline.with_passes Ir.Pipeline.all (fun () ->
            run Gpusim.Exec.Compiled))
  in
  Alcotest.(check bool) "lockstep ran the specialisation" true
    (engine = Gpusim.Exec.Engine_lockstep)

(* The kernel lowers; its helper does not (a string literal), so the
   IR-compiled kernel calls into the interpreter for it. *)
let rejected_helper_src = {|
__device__ int helper(int x) {
  printf("x=%d\n", x);
  if (x > 40) { return x - 40; }
  return x * 2;
}

__global__ void k(int* data, int n) {
  __shared__ int tile[64];
  int t = threadIdx.x;
  int i = blockIdx.x * blockDim.x + t;
  tile[t] = data[i] + 1;
  __syncthreads();
  int acc = 0;
  for (int j = 0; j < 3; j++) { acc += tile[(t + j) % 64]; }
  if (i < n) data[i] = helper(acc);
}
|}

(* Everything an observer sees, in order. *)
let recording_observer () =
  let evs = ref [] in
  let push e = evs := e :: !evs in
  let obs =
    { Vm.Interp.obs_branch = (fun b -> push (Printf.sprintf "branch %b" b));
      obs_store =
        (fun _ space addr _ v ->
           match space with
           | AS_private | AS_none -> ()
           | _ ->
             push (Printf.sprintf "store %s %d %s" (show_addr_space space)
                     addr (Vm.Value.to_string v)));
      obs_perform = (fun _ -> true);
      obs_enter = (fun n -> push ("enter " ^ n));
      obs_leave = (fun n -> push ("leave " ^ n)) }
  in
  (obs, fun () -> List.rev !evs)

let observer_and_rejected_helper_match_interp () =
  with_ref Minic.Site.enabled true @@ fun () ->
  with_ref Gpusim.Exec.attribute true @@ fun () ->
  Minic.Site.reset ();
  let prog =
    Minic.Site.annotate
      (Minic.Parser.program ~dialect:Minic.Parser.Cuda rejected_helper_src)
  in
  let kernel = Option.get (find_function prog "k") in
  let est =
    Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty ~cfg:Ir.Pipeline.none prog
  in
  Alcotest.(check bool) "kernel is IR-compiled" true
    (match Ir.Emit.ir est "k" with Some (Ok _) -> true | _ -> false);
  Alcotest.(check bool) "helper is rejected" true
    (match Ir.Emit.ir est "helper" with Some (Error _) -> true | _ -> false);
  let run ?observer backend =
    Ir.Pipeline.with_passes Ir.Pipeline.none (fun () ->
        fst
          (launch_buf ?observer ~backend ~prog ~kernel ~n:128 ~lws:64
             (int_args [ 120 ])))
  in
  let reference = run Gpusim.Exec.Interp in
  same_as ~reference "rejected-helper callee" (run Gpusim.Exec.Compiled);
  let o_ir, ev_ir = recording_observer () in
  let o_in, ev_in = recording_observer () in
  same_as ~reference "observer launch" (run ~observer:o_ir Gpusim.Exec.Compiled);
  ignore (run ~observer:o_in Gpusim.Exec.Interp);
  Alcotest.(check bool) "observer saw events" true (ev_in () <> []);
  Alcotest.(check (list string)) "observer events" (ev_in ()) (ev_ir ())

(* ------------------------------------------------------------------ *)
(* Build-cache contract                                                *)
(* ------------------------------------------------------------------ *)

let cache_hit_miss () =
  let c = Trace.Build_cache.create "test: unit cache" in
  let builds = ref 0 in
  let build () = incr builds; !builds in
  let v1 = Trace.Build_cache.memo c "source A" build in
  let v2 = Trace.Build_cache.memo c "source A" build in
  Alcotest.(check int) "identical source returns cached value" v1 v2;
  Alcotest.(check int) "builder ran once" 1 !builds;
  Alcotest.(check (pair int int)) "one hit, one miss" (1, 1)
    (Trace.Build_cache.stats c);
  let v3 = Trace.Build_cache.memo c "source B" build in
  Alcotest.(check int) "changed source rebuilds" 2 v3;
  Alcotest.(check (pair int int)) "miss after change" (1, 2)
    (Trace.Build_cache.stats c);
  Trace.Build_cache.clear c;
  Alcotest.(check (pair int int)) "clear resets stats" (0, 0)
    (Trace.Build_cache.stats c);
  let v4 = Trace.Build_cache.memo c "source A" build in
  Alcotest.(check int) "cleared cache rebuilds" 3 v4

let cache_failure_not_cached () =
  let c = Trace.Build_cache.create "test: failing cache" in
  let attempt () =
    Trace.Build_cache.find_or_build c ~key:"k" (fun () -> failwith "boom")
  in
  Alcotest.check_raises "first build fails" (Failure "boom") (fun () ->
      ignore (attempt ()));
  Alcotest.check_raises "failure was not cached" (Failure "boom") (fun () ->
      ignore (attempt ()));
  let v = Trace.Build_cache.find_or_build c ~key:"k" (fun () -> 42) in
  Alcotest.(check int) "later success is cached normally" 42 v;
  Alcotest.(check int) "and hits from then on" 42
    (Trace.Build_cache.find_or_build c ~key:"k" (fun () -> 0))

(* End-to-end: re-running an application through the OpenCL-on-CUDA
   wrappers re-uses the source-to-source translation. *)
let translate_cache_hits_across_runs () =
  let app = List.hd Suite.Registry.rodinia_opencl in
  let stats_of name =
    match
      List.find_opt (fun (n, _, _) -> n = name) (Trace.Build_cache.all_stats ())
    with
    | Some (_, h, m) -> (h, m)
    | None -> Alcotest.failf "cache %S not registered" name
  in
  ignore (Bridge.Framework.run_app_on_cuda app ());
  let h0, m0 = stats_of "ocl->cuda translate" in
  ignore (Bridge.Framework.run_app_on_cuda app ());
  let h1, m1 = stats_of "ocl->cuda translate" in
  Alcotest.(check int) "no new translations on re-run" m0 m1;
  Alcotest.(check bool) "re-run hits the cache" true (h1 > h0)

let suites =
  [ ( "backend.differential",
      [ QCheck_alcotest.to_alcotest prop_backends_agree;
        Alcotest.test_case "wrapper app agrees across backends" `Quick
          app_agrees_across_backends;
        Alcotest.test_case "templated kernel lowers to an IR wrapper" `Quick
          template_kernel_lowers;
        Alcotest.test_case
          "observer launch and rejected helper match the interpreter" `Quick
          observer_and_rejected_helper_match_interp ] );
    ( "backend.build-cache",
      [ Alcotest.test_case "hit on identical source, miss after change" `Quick
          cache_hit_miss;
        Alcotest.test_case "failed builds are not cached" `Quick
          cache_failure_not_cached;
        Alcotest.test_case "translate cache hits across app re-runs" `Quick
          translate_cache_hits_across_runs ] ) ]
