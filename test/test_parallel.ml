(* Determinism harness for the domain-parallel execution engine.

   The contract under test: running a launch with [Gpusim.Exec.domains]
   set to any value is observationally indistinguishable from the
   sequential engine — output buffers byte-for-byte, the full
   {!Gpusim.Counters.t}, traces, goldens and exceptions.  The directed
   cases additionally pin down *which* path produced the result
   (accepted-parallel vs detected-conflict-and-replayed) via the
   per-launch [launch_stats.pool.outcome], so a regression that silently
   forces everything through replay still fails. *)

open Minic.Ast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_domains n f =
  let saved = !Gpusim.Exec.domains in
  Gpusim.Exec.domains := n;
  Fun.protect ~finally:(fun () -> Gpusim.Exec.domains := saved) f

let gbuf (dev : Gpusim.Device.t) bytes =
  Vm.Memory.alloc dev.global ~align:256 bytes

let iptr addr =
  Gpusim.Exec.Arg_val
    (Vm.Interp.tv
       (Vm.Value.VInt (Vm.Value.make_ptr AS_global addr))
       (TPtr (TScalar Int)))

let read_ints (dev : Gpusim.Device.t) addr n =
  Array.init n (fun i ->
      Int64.to_int (Vm.Memory.load_int dev.global (addr + (4 * i)) 4))

let launch_at ~domains ?(dialect = Minic.Parser.OpenCL) ~src ~kernel ~gws ~lws
    ~args () =
  with_domains domains @@ fun () ->
  let prog = Minic.Parser.program ~dialect src in
  let dev = Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia in
  let host = Vm.Memory.create "host" in
  let k = Option.get (find_function prog kernel) in
  let stats =
    Gpusim.Exec.launch ~dev ~prog ~globals:(Hashtbl.create 4) ~host_arena:host
      ~kernel:k
      ~cfg:{ global_size = gws; local_size = lws; dyn_shared = 0 }
      ~args:(args dev) ()
  in
  (dev, stats)

let outcome_name = function
  | Gpusim.Exec.Seq -> "seq"
  | Gpusim.Exec.Parallel n -> Printf.sprintf "parallel-%d" n
  | Gpusim.Exec.Replayed r -> "replayed: " ^ r

let expect_parallel (stats : Gpusim.Exec.launch_stats) =
  match stats.Gpusim.Exec.pool.Gpusim.Exec.outcome with
  | Gpusim.Exec.Parallel _ -> ()
  | o -> Alcotest.fail ("expected the accepted-parallel path, got " ^ outcome_name o)

let expect_replayed (stats : Gpusim.Exec.launch_stats) =
  match stats.Gpusim.Exec.pool.Gpusim.Exec.outcome with
  | Gpusim.Exec.Replayed _ -> ()
  | o -> Alcotest.fail ("expected conflict-and-replay, got " ^ outcome_name o)

(* --- qcheck: generated kernels across domain counts -------------------- *)

(* Reuse the fuzzer's launch plans: a generated case is executed under
   domain counts {1, 2, 4, 8} and every run must reproduce the
   sequential buffers and counters exactly — or fail with the same
   exception (replay re-raises deterministically). *)
let run_case_at backend case plan n =
  with_domains n (fun () ->
      match Fuzz.Pyramid.run_plan backend case plan with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e))

let prop_domain_counts =
  QCheck.Test.make ~count:30
    ~name:"generated kernels agree across domain counts {1,2,4,8}"
    QCheck.(int_range 0 100_000)
    (fun seed ->
       let case = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
       let plan = Fuzz.Pyramid.plan_of_case case case.Fuzz.Gen.c_prog in
       let reference = run_case_at Gpusim.Exec.Compiled case plan 1 in
       List.for_all
         (fun n ->
            run_case_at Gpusim.Exec.Compiled case plan n = reference)
         [ 2; 4; 8 ])

let prop_domain_counts_interp =
  QCheck.Test.make ~count:10
    ~name:"interpreter backend agrees across domain counts too"
    QCheck.(int_range 0 100_000)
    (fun seed ->
       let case = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
       let plan = Fuzz.Pyramid.plan_of_case case case.Fuzz.Gen.c_prog in
       run_case_at Gpusim.Exec.Interp case plan 4
       = run_case_at Gpusim.Exec.Interp case plan 1)

(* --- directed regressions ---------------------------------------------- *)

let directed_tests =
  [ Alcotest.test_case "global-atomic contention stays parallel" `Quick
      (fun () ->
         (* every block hammers one counter cell; add commutes and no
            result is consumed, so the optimistic path must be accepted *)
         let src = {|
__kernel void count(__global int* c, __global int* out) {
  atomic_add(c, 2);
  out[get_global_id(0)] = get_local_id(0);
}
|}
         in
         let cell = ref 0 in
         let dev, stats =
           launch_at ~domains:4 ~src ~kernel:"count" ~gws:[| 64; 1; 1 |]
             ~lws:[| 8; 1; 1 |]
             ~args:(fun dev ->
                 let c = gbuf dev 4 and o = gbuf dev (64 * 4) in
                 cell := c;
                 [ iptr c; iptr o ])
             ()
         in
         expect_parallel stats;
         check_int "64 adds of 2" 128 (read_ints dev !cell 1).(0));
    Alcotest.test_case "used atomic result forces replay, value exact" `Quick
      (fun () ->
         (* consuming the returned ticket makes the interleaving
            observable: must replay and reproduce sequential tickets *)
         let src = {|
__kernel void ticket(__global int* c, __global int* out) {
  out[get_global_id(0)] = atomic_add(c, 1);
}
|}
         in
         let out = ref 0 in
         let dev, stats =
           launch_at ~domains:4 ~src ~kernel:"ticket" ~gws:[| 32; 1; 1 |]
             ~lws:[| 4; 1; 1 |]
             ~args:(fun dev ->
                 let c = gbuf dev 4 and o = gbuf dev (32 * 4) in
                 out := o;
                 [ iptr c; iptr o ])
             ()
         in
         expect_replayed stats;
         (* sequential block order: item i draws ticket i *)
         Alcotest.(check (array int)) "sequential tickets"
           (Array.init 32 (fun i -> i))
           (read_ints dev !out 32));
    Alcotest.test_case "CAS contention forces replay" `Quick (fun () ->
        let src = {|
__kernel void grab(__global int* c) {
  atomic_cmpxchg(c, 0, (int)get_group_id(0) + 1);
}
|}
        in
        let cell = ref 0 in
        let dev, stats =
          launch_at ~domains:4 ~src ~kernel:"grab" ~gws:[| 16; 1; 1 |]
            ~lws:[| 2; 1; 1 |]
            ~args:(fun dev ->
                let c = gbuf dev 4 in
                cell := c;
                [ iptr c ])
            ()
        in
        expect_replayed stats;
        (* sequential winner is block 0's first item *)
        check_int "first block wins" 1 (read_ints dev !cell 1).(0));
    Alcotest.test_case "cross-block overlapping writes replay sequentially"
      `Quick (fun () ->
          let src = {|
__kernel void clobber(__global int* c) {
  c[0] = (int)get_group_id(0);
}
|}
          in
          let cell = ref 0 in
          let dev, stats =
            launch_at ~domains:4 ~src ~kernel:"clobber" ~gws:[| 32; 1; 1 |]
              ~lws:[| 4; 1; 1 |]
              ~args:(fun dev ->
                  let c = gbuf dev 4 in
                  cell := c;
                  [ iptr c ])
              ()
          in
          expect_replayed stats;
          (* sequentially the last block writes last *)
          check_int "last block wins" 7 (read_ints dev !cell 1).(0));
    Alcotest.test_case "barrier-heavy blocks run parallel and agree" `Quick
      (fun () ->
         let src = {|
__kernel void reduce(__global int* out, __local int* tmp) {
  int t = get_local_id(0);
  tmp[t] = t + (int)get_group_id(0);
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = 4; s > 0; s /= 2) {
    if (t < s) tmp[t] = tmp[t] + tmp[t + s];
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (t == 0) out[get_group_id(0)] = tmp[0];
}
|}
         in
         let run n =
           let out = ref 0 in
           let dev, stats =
             launch_at ~domains:n ~src ~kernel:"reduce" ~gws:[| 64; 1; 1 |]
               ~lws:[| 8; 1; 1 |]
               ~args:(fun dev ->
                   let o = gbuf dev (8 * 4) in
                   out := o;
                   [ iptr o; Gpusim.Exec.Arg_local (8 * 4) ])
               ()
           in
           (read_ints dev !out 8, stats.Gpusim.Exec.counters,
            stats.Gpusim.Exec.pool.Gpusim.Exec.outcome)
         in
         let seq_out, seq_ctr, _ = run 1 in
         let par_out, par_ctr, par_outcome = run 4 in
         (match par_outcome with
          | Gpusim.Exec.Parallel _ -> ()
          | o ->
            Alcotest.fail
              ("expected the accepted-parallel path, got " ^ outcome_name o));
         Alcotest.(check (array int)) "per-block sums" seq_out par_out;
         check_int "barrier rounds" seq_ctr.Gpusim.Counters.barriers
           par_ctr.Gpusim.Counters.barriers;
         check "full counters equal" true (seq_ctr = par_ctr));
    Alcotest.test_case "degenerate single-block launch takes the seq path"
      `Quick (fun () ->
          (* a zero/one-block geometry has nothing to parallelise; the
             engine must not spin up the pool for it *)
          let src = "__kernel void one(__global int* p) { p[get_global_id(0)] = 7; }" in
          let out = ref 0 in
          let dev, stats =
            launch_at ~domains:8 ~src ~kernel:"one" ~gws:[| 0; 0; 0 |]
              ~lws:[| 1; 1; 1 |]
              ~args:(fun dev ->
                  let o = gbuf dev 4 in
                  out := o;
                  [ iptr o ])
              ()
          in
          check "seq outcome" true
            (stats.Gpusim.Exec.pool.Gpusim.Exec.outcome = Gpusim.Exec.Seq);
          check_int "one block" 1 stats.Gpusim.Exec.n_blocks;
          check_int "wrote" 7 (read_ints dev !out 1).(0));
    Alcotest.test_case "deterministic crash is identical across domains"
      `Quick (fun () ->
          let src = {|
__kernel void boom(__global int* p) {
  p[get_global_id(0)] = 1 / (p[get_global_id(0)] - p[get_global_id(0)]);
}
|}
          in
          let attempt n =
            match
              launch_at ~domains:n ~src ~kernel:"boom" ~gws:[| 16; 1; 1 |]
                ~lws:[| 4; 1; 1 |]
                ~args:(fun dev -> [ iptr (gbuf dev (16 * 4)) ])
                ()
            with
            | _ -> "no exception"
            | exception e -> Printexc.to_string e
          in
          Alcotest.(check string) "same exception" (attempt 1) (attempt 4)) ]

(* --- directed cases at scale -------------------------------------------- *)

(* A 128-block histogram: 64 bins shared by every block, each hit with
   an RMW whose result is discarded. *)
let histogram_src rmw = Printf.sprintf {|
__global__ void hist(int* bins) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  %s(&bins[(i * i) %% 64], 1);
}
|} rmw

let launch_histogram rmw =
  let bins = ref 0 in
  let dev, stats =
    launch_at ~domains:4 ~dialect:Minic.Parser.Cuda ~src:(histogram_src rmw)
      ~kernel:"hist" ~gws:[| 128 * 16; 1; 1 |] ~lws:[| 16; 1; 1 |]
      ~args:(fun dev ->
          let b = gbuf dev (64 * 4) in
          bins := b;
          [ iptr b ])
      ()
  in
  (read_ints dev !bins 64, stats)

let cptr addr =
  Gpusim.Exec.Arg_val
    (Vm.Interp.tv
       (Vm.Value.VInt (Vm.Value.make_ptr AS_global addr))
       (TPtr (TScalar Char)))

(* Block [g] stores bytes [stride*g, stride*g + lws): with [lws] =
   [stride] the blocks' ranges touch, one more byte and they overlap. *)
let launch_byte_ranges ~stride ~lws =
  let src = Printf.sprintf {|
__kernel void span(__global char* p) {
  p[(int)get_group_id(0) * %d + (int)get_local_id(0)] = (char)get_group_id(0);
}
|} stride
  in
  launch_at ~domains:4 ~src ~kernel:"span" ~gws:[| 32 * lws; 1; 1 |]
    ~lws:[| lws; 1; 1 |]
    ~args:(fun dev -> [ cptr (gbuf dev ((32 * stride) + lws)) ])
    ()

let scale_tests =
  [ Alcotest.test_case "128-block atomicAdd histogram stays parallel" `Quick
      (fun () ->
         let bins, stats = launch_histogram "atomicAdd" in
         expect_parallel stats;
         let expected = Array.make 64 0 in
         for i = 0 to (128 * 16) - 1 do
           let b = i * i mod 64 in
           expected.(b) <- expected.(b) + 1
         done;
         Alcotest.(check (array int)) "exact bins" expected bins);
    Alcotest.test_case "128-block atomicExch histogram replays" `Quick
      (fun () ->
         let _, stats = launch_histogram "atomicExch" in
         expect_replayed stats);
    Alcotest.test_case "strided gather with disjoint writes stays parallel"
      `Quick (fun () ->
          (* each item reads a scattered element, so read logs stay one
             interval per item; writes are one contiguous range per block *)
          let src = {|
__kernel void gather(__global int* in, __global int* out) {
  int i = get_global_id(0);
  out[i] = in[(i * 37) % 1024] + 1;
}
|}
          in
          let out = ref 0 in
          let dev, stats =
            launch_at ~domains:4 ~src ~kernel:"gather" ~gws:[| 1024; 1; 1 |]
              ~lws:[| 32; 1; 1 |]
              ~args:(fun dev ->
                  let i = gbuf dev (1024 * 4) and o = gbuf dev (1024 * 4) in
                  for k = 0 to 1023 do
                    Vm.Memory.store_int dev.global (i + (4 * k)) 4
                      (Int64.of_int (3 * k))
                  done;
                  out := o;
                  [ iptr i; iptr o ])
              ()
          in
          expect_parallel stats;
          Alcotest.(check (array int)) "gathered"
            (Array.init 1024 (fun i -> (3 * (i * 37 mod 1024)) + 1))
            (read_ints dev !out 1024));
    Alcotest.test_case "adjacent half-open write ranges stay parallel" `Quick
      (fun () -> expect_parallel (snd (launch_byte_ranges ~stride:8 ~lws:8)));
    Alcotest.test_case "a one-byte cross-block overlap replays" `Quick
      (fun () -> expect_replayed (snd (launch_byte_ranges ~stride:8 ~lws:9))) ]

(* --- qcheck: the sweep against a pairwise reference --------------------- *)

type gen_log = {
  g_block : int;
  g_reads : (int * int) list;                       (* addr, size *)
  g_writes : (int * int) list;
  g_atomics : (int * int * Gpusim.Conflict.klass) list;
}

let klasses =
  Gpusim.Conflict.
    [| Kadd; Kmin; Kmax; Kother; Kinc 7L; Kinc 0xffffffffL; Kdec 7L;
       Kdec 0L |]

(* Pairwise over the raw entries: every reason a conflicting pair gives.
   Sizes are positive, as for every access the VM logs, so the raw
   entries overlap exactly when their merged intervals do. *)
let reference logs ~atomics_clean =
  let ord = ref [] and atoms = ref [] in
  List.iter
    (fun g ->
       List.iter (fun (a, s) -> ord := (`R, a, a + s, g.g_block) :: !ord)
         g.g_reads;
       List.iter (fun (a, s) -> ord := (`W, a, a + s, g.g_block) :: !ord)
         g.g_writes;
       List.iter
         (fun (a, s, k) ->
            if atomics_clean then atoms := (a, s, k, g.g_block) :: !atoms
            else
              ord := (`R, a, a + s, g.g_block) :: (`W, a, a + s, g.g_block)
                     :: !ord)
         g.g_atomics)
    logs;
  let overlap lo hi lo' hi' = lo < hi' && lo' < hi in
  let found = ref [] in
  let note r = if not (List.mem r !found) then found := r :: !found in
  List.iter
    (fun (k, lo, hi, b) ->
       List.iter
         (fun (k', lo', hi', b') ->
            if b <> b' && overlap lo hi lo' hi' then
              match k, k' with
              | `W, `W -> note "write/write overlap across blocks"
              | `W, `R | `R, `W -> note "read/write overlap across blocks"
              | `R, `R -> ())
         !ord;
       List.iter
         (fun (a, s, _, b') ->
            if b <> b' && overlap lo hi a (a + s) then
              note "atomic overlaps ordinary access across blocks")
         !atoms)
    !ord;
  List.iter
    (fun (a, s, k, b) ->
       List.iter
         (fun (a', s', k', b') ->
            if b <> b' && overlap a (a + s) a' (a' + s')
               && not (a = a' && s = s' && k = k' && k <> Gpusim.Conflict.Kother)
            then note "non-commuting atomics on one cell across blocks")
         !atoms)
    !atoms;
  !found

(* Addresses crowd a 96-byte line so entries overlap, nest, touch and
   repeat; atomic cells come from a small pool, some partially
   overlapping, so exact-cell sharing is common.  Half the cases keep
   each block's writes in its own region (touching the next block's)
   and the reads clear of the atomic cells, so the accepting verdict,
   and atomic conflicts alone, are frequent too. *)
let gen_case =
  let open QCheck.Gen in
  let cells = [| (0, 4); (0, 8); (4, 4); (2, 2); (8, 8); (64, 4) |] in
  let* n_blocks = int_range 1 5 in
  let* atomics_clean = bool in
  let* separate = bool in
  let* one_class = bool in
  let* ids = shuffle_l (List.init 8 Fun.id) in
  let ids = List.filteri (fun i _ -> i < n_blocks) ids in
  let interval ~base ~span =
    let* lo = int_range base (base + span - 1) in
    let* size = oneofl [ 1; 2; 4; 4; 8 ] in
    return (lo, size)
  in
  let block blk =
    let* reads =
      list_size (int_range 0 6)
        (interval ~base:(if separate then 80 else 0) ~span:96)
    in
    let* writes =
      list_size (int_range 0 4)
        (if separate then interval ~base:(100 + (16 * blk)) ~span:9
         else interval ~base:0 ~span:96)
    in
    let writes = writes @ List.filteri (fun i _ -> i = 0) writes in
    let* atomics =
      list_size (int_range 0 5)
        (let* cell = oneofa cells in
         let* k = if one_class then return 0 else int_bound 7 in
         return (fst cell, snd cell, klasses.(k)))
    in
    let atomics = atomics @ List.filteri (fun i _ -> i < 2) atomics in
    return { g_block = blk; g_reads = reads; g_writes = writes;
             g_atomics = atomics }
  in
  let* logs = flatten_l (List.map block ids) in
  return (logs, atomics_clean)

let print_case (logs, atomics_clean) =
  let iv (a, s) = Printf.sprintf "[%d,%d)" a (a + s) in
  let klass = function
    | Gpusim.Conflict.Kadd -> "add" | Kmin -> "min" | Kmax -> "max"
    | Kother -> "other" | Kinc b -> Printf.sprintf "inc%Ld" b
    | Kdec b -> Printf.sprintf "dec%Ld" b
  in
  Printf.sprintf "atomics_clean=%b\n%s" atomics_clean
    (String.concat "\n"
       (List.map
          (fun g ->
             Printf.sprintf "block %d: R %s W %s A %s" g.g_block
               (String.concat " " (List.map iv g.g_reads))
               (String.concat " " (List.map iv g.g_writes))
               (String.concat " "
                  (List.map
                     (fun (a, s, k) -> iv (a, s) ^ ":" ^ klass k)
                     g.g_atomics)))
          logs))

let prop_check_matches_reference =
  QCheck.Test.make ~count:2000
    ~name:"conflict check agrees with a pairwise reference"
    (QCheck.make ~print:print_case gen_case)
    (fun (logs, atomics_clean) ->
       let block_logs =
         List.map
           (fun g ->
              let b = Gpusim.Conflict.block_log g.g_block in
              List.iter (fun (a, s) -> Gpusim.Conflict.record_read b a s)
                g.g_reads;
              List.iter (fun (a, s) -> Gpusim.Conflict.record_write b a s)
                g.g_writes;
              List.iter
                (fun (a, s, k) -> Gpusim.Conflict.record_atomic b a s k)
                g.g_atomics;
              b)
           logs
       in
       let expected = reference logs ~atomics_clean in
       match Gpusim.Conflict.check block_logs ~atomics_clean with
       | None -> expected = []
       | Some reason -> List.mem reason expected)

(* --- domain-safety of shared infrastructure ----------------------------- *)

let safety_tests =
  [ Alcotest.test_case "concurrent launches share the compiled cache" `Quick
      (fun () ->
         (* four domains launch the same loaded module simultaneously,
            exercising the compiled-program cache and the lazy
            compilation lock; each must see correct results *)
         with_domains 1 @@ fun () ->
         let src = {|
__kernel void fill(__global int* p) {
  p[get_global_id(0)] = (int)get_global_id(0) * 3;
}
|}
         in
         let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
         let k = Option.get (find_function prog "fill") in
         let run () =
           let dev =
             Gpusim.Device.create Gpusim.Device.titan
               Gpusim.Device.opencl_on_nvidia
           in
           let host = Vm.Memory.create "host" in
           let b = gbuf dev (32 * 4) in
           ignore
             (Gpusim.Exec.launch ~dev ~prog ~globals:(Hashtbl.create 4)
                ~host_arena:host ~kernel:k
                ~cfg:
                  { global_size = [| 32; 1; 1 |]; local_size = [| 8; 1; 1 |];
                    dyn_shared = 0 }
                ~args:[ iptr b ] ());
           read_ints dev b 32
         in
         let expected = Array.init 32 (fun i -> i * 3) in
         let spawned = Array.init 4 (fun _ -> Domain.spawn run) in
         Array.iteri
           (fun i d ->
              Alcotest.(check (array int))
                (Printf.sprintf "domain %d" i) expected (Domain.join d))
           spawned);
    Alcotest.test_case "fuzz rng streams are per-instance" `Quick (fun () ->
        let draw () =
          let r = Fuzz.Rng.create 99 in
          Array.init 512 (fun _ -> Fuzz.Rng.int r 1_000_000)
        in
        let a = Domain.spawn draw and b = Domain.spawn draw in
        let ra = Domain.join a and rb = Domain.join b in
        Alcotest.(check (array int)) "identical streams" ra rb;
        Alcotest.(check (array int)) "match the host's" (draw ()) ra) ]

(* --- traces and goldens under parallel execution ------------------------ *)

let trace_tests =
  [ Alcotest.test_case "block spans are identical at 1 and 4 domains" `Quick
      (fun () ->
         let src = {|
__kernel void work(__global int* p) {
  p[get_global_id(0)] = (int)get_group_id(0);
}
|}
         in
         let spans_at n =
           let saved = !Gpusim.Exec.trace_blocks in
           Gpusim.Exec.trace_blocks := true;
           Fun.protect
             ~finally:(fun () -> Gpusim.Exec.trace_blocks := saved)
             (fun () ->
                Trace.Sink.enable ();
                ignore
                  (launch_at ~domains:n ~src ~kernel:"work" ~gws:[| 32; 1; 1 |]
                     ~lws:[| 4; 1; 1 |]
                     ~args:(fun dev -> [ iptr (gbuf dev (32 * 4)) ])
                     ());
                let evs = Trace.Sink.events () in
                Trace.Sink.disable ();
                List.map
                  (fun sp ->
                     ( sp.Trace.Event.sp_id, sp.Trace.Event.sp_name,
                       sp.Trace.Event.sp_cat, sp.Trace.Event.sp_t0,
                       sp.Trace.Event.sp_t1, sp.Trace.Event.sp_args ))
                  evs)
         in
         let seq = spans_at 1 in
         check_int "one span per block" 8 (List.length seq);
         check "bit-identical stream" true (seq = spans_at 4));
    Alcotest.test_case "prof golden files unchanged at 4 domains" `Quick
      (fun () ->
         with_domains 4 @@ fun () ->
         let runs =
           Test_golden.profile_cuda_src "deviceQuery"
             (Test_golden.devicequery_src ())
         in
         Test_golden.check_golden "prof_devicequery.txt"
           (Test_golden.summary_text runs));
    Alcotest.test_case "chrome trace golden unchanged at 4 domains" `Quick
      (fun () ->
         with_domains 4 @@ fun () ->
         let runs =
           Test_golden.profile_cuda_src "deviceQuery"
             (Test_golden.devicequery_src ())
         in
         let pairs =
           List.map
             (fun tr -> (tr.Test_golden.tr_label, tr.Test_golden.tr_spans))
             runs
         in
         let json = Trace.Chrome.to_json pairs in
         Test_golden.check_golden "chrome_devicequery.json"
           (Test_golden.normalize_chrome (Trace.Json.to_string json))) ]

let suites =
  [ ("parallel.directed", directed_tests);
    ("parallel.scale", scale_tests);
    ( "parallel.qcheck",
      [ QCheck_alcotest.to_alcotest prop_domain_counts;
        QCheck_alcotest.to_alcotest prop_domain_counts_interp;
        QCheck_alcotest.to_alcotest prop_check_matches_reference ] );
    ("parallel.safety", safety_tests);
    ("parallel.trace", trace_tests) ]
