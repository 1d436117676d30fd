(* Closure emission from the optimized kernel IR.

   One OCaml closure per instruction, composed into per-body arrays,
   with a per-call wrapper that mirrors `Vm.Interp.call_function` (depth
   guard, stack-arena mark/release, observer enter/leave, return-type
   conversion).  Every runtime branch below replicates the
   interpreter's — same value normalization, same `on_access`/`on_op`
   charges, same observer hooks, same failure messages — except where
   the IR's documented promotion exception applies: values in virtual
   registers have no simulated memory traffic at all.

   Functions the lowering rejected run on the interpreter: a `CallU`
   resolves its callee lazily at first call, to an IR wrapper when one
   exists and to `Vm.Interp.call_function` otherwise, so a kernel is
   IR-compiled even when a helper it calls is not. *)

open Minic.Ast
module I = Vm.Interp
module V = Vm.Value
module Memory = Vm.Memory
module Layout = Vm.Layout

(* Per-invocation state: registers and memory-variable bindings are
   per-call (and thus per-work-item).  [ambient] is the attribution site current at function entry,
   the meaning of an instruction's -1 site tag. *)
type renv = {
  ctx : I.ctx;
  regs : I.tval array;
  mem : I.binding array;
  ambient : int;
}

let dummy_binding = { I.b_space = AS_none; b_addr = 0; b_ty = TScalar Void }

(* Runtime lvalue. *)
type dlv =
  | DMem of addr_space * int * ty
  | DVec of addr_space * int * scalar * int array

(* Emitted lvalue: statically-typed memory producer, or generic. *)
type clv =
  | CMem of (renv -> addr_space * int) * ty
  | CDyn of (renv -> dlv)

(* ------------------------------------------------------------------ *)
(* Type-specialised loads and stores (mirrors of Interp.load / store)  *)
(* ------------------------------------------------------------------ *)

let compiled_load lt ty : I.ctx -> addr_space -> int -> V.t =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double) as s) ->
    let n = scalar_size s in
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr n;
      V.VFloat (Memory.load_float (ctx.I.arena_of space) addr n)
  | TScalar s ->
    let n = max 1 (scalar_size s) in
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr n;
      V.VInt (V.wrap_int s (Memory.load_int (ctx.I.arena_of space) addr n))
  | TVec (s, n) ->
    let es = scalar_size s in
    let fl = is_float_scalar s in
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr (es * n);
      let a = ctx.I.arena_of space in
      V.VVec
        (Array.init n (fun i ->
             if fl then V.VFloat (Memory.load_float a (addr + (i * es)) es)
             else V.VInt (V.wrap_int s (Memory.load_int a (addr + (i * es)) es))))
  | TPtr _ | TRef _ | TFun _ | TTexture _ | TImage _ | TSampler ->
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr 8;
      V.VInt (Memory.load_int (ctx.I.arena_of space) addr 8)
  | TArr _ -> fun _ space addr -> V.VInt (V.make_ptr space addr)
  | TNamed name when Layout.is_struct lt (TNamed name) ->
    fun _ space addr -> V.VInt (V.make_ptr space addr)
  | TNamed _ ->
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr 8;
      V.VInt (Memory.load_int (ctx.I.arena_of space) addr 8)
  | TQual _ | TConst _ -> assert false

let rec compiled_store_raw lt ty : I.ctx -> addr_space -> int -> V.t -> unit =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double) as s) ->
    let n = scalar_size s in
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr n;
      Memory.store_float (ctx.I.arena_of space) addr n
        (V.round_float s (V.to_float v))
  | TScalar s ->
    let n = max 1 (scalar_size s) in
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr n;
      Memory.store_int (ctx.I.arena_of space) addr n (V.to_int v)
  | TVec (s, n) ->
    let es = scalar_size s in
    let fl = is_float_scalar s in
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr (es * n);
      let a = ctx.I.arena_of space in
      let comps = match v with V.VVec c -> c | v -> Array.make n v in
      for i = 0 to n - 1 do
        let c = if i < Array.length comps then comps.(i) else V.VInt 0L in
        if fl then
          Memory.store_float a (addr + (i * es)) es
            (V.round_float s (V.to_float c))
        else Memory.store_int a (addr + (i * es)) es (V.to_int c)
      done
  | TPtr _ | TRef _ | TFun _ | TTexture _ | TImage _ | TSampler ->
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr 8;
      Memory.store_int (ctx.I.arena_of space) addr 8 (V.to_int v)
  | TNamed name when Layout.is_struct lt (TNamed name) ->
    let size = Layout.sizeof lt (TNamed name) in
    fun ctx space addr v ->
      let src = V.to_int v in
      let src_space = V.ptr_space src in
      ctx.I.on_access Memory.Load src_space (V.ptr_offset src) size;
      ctx.I.on_access Memory.Store space addr size;
      Memory.blit
        ~src:(ctx.I.arena_of src_space)
        ~src_addr:(V.ptr_offset src)
        ~dst:(ctx.I.arena_of space) ~dst_addr:addr ~len:size
  | TNamed _ ->
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr 8;
      Memory.store_int (ctx.I.arena_of space) addr 8 (V.to_int v)
  | TArr (elt, _) -> compiled_store_raw lt (TPtr elt)
  | TQual _ | TConst _ -> assert false

let compiled_store lt ty : I.ctx -> addr_space -> int -> V.t -> unit =
  let raw = compiled_store_raw lt ty in
  fun ctx space addr v ->
    match ctx.I.observer with
    | None -> raw ctx space addr v
    | Some o ->
      o.I.obs_store ctx space addr ty v;
      if o.I.obs_perform space then raw ctx space addr v

(* Generic load/store for dynamically shaped lvalues. *)

let load_dlv ctx = function
  | DMem (sp, addr, ty) -> I.tv (I.load ctx sp addr ty) ty
  | DVec (sp, addr, s, idx) ->
    let es = scalar_size s in
    if Array.length idx = 1 then
      I.tv (I.load ctx sp (addr + (idx.(0) * es)) (TScalar s)) (TScalar s)
    else
      let comps =
        Array.map (fun i -> I.load ctx sp (addr + (i * es)) (TScalar s)) idx
      in
      I.tv (V.VVec comps) (TVec (s, Array.length idx))

let store_dlv ctx lv (x : I.tval) =
  match lv with
  | DMem (sp, addr, ty) -> I.store ctx sp addr ty x.I.v
  | DVec (sp, addr, s, idx) ->
    let es = scalar_size s in
    let comps =
      match x.I.v with
      | V.VVec c -> c
      | v -> Array.make (Array.length idx) v
    in
    Array.iteri
      (fun k i ->
         if k >= Array.length comps then
           I.fail "vector component assignment: %d components for %d slots"
             (Array.length comps) (Array.length idx);
         I.store ctx sp (addr + (i * es)) (TScalar s) comps.(k))
      idx

let run_lv env = function
  | CMem (f, ty) ->
    let sp, addr = f env in
    DMem (sp, addr, ty)
  | CDyn f -> f env

(* Scalar fast paths for the hot binary operators; anything else goes
   to the interpreter's generic binop. *)
let fast_binop (op : binop) : (I.ctx -> I.tval -> I.tval -> I.tval) option =
  match op with
  | Add | Sub | Mul | Lt | Gt | Le | Ge | Eq | Ne | Band | Bor | Bxor | Shl
  | Shr ->
    let cmp =
      match op with Lt | Gt | Le | Ge | Eq | Ne -> true | _ -> false
    in
    Some
      (fun ctx (x : I.tval) (y : I.tval) ->
         match x.I.ty, y.I.ty, x.I.v, y.I.v with
         | TScalar Int, TScalar Int, V.VInt a, V.VInt b ->
           ctx.I.on_op I.Op_int;
           let r = I.int_binop op a b ~unsigned:false in
           I.tv (V.VInt (if cmp then r else V.wrap_int Int r)) (TScalar Int)
         | TScalar UInt, TScalar UInt, V.VInt a, V.VInt b ->
           ctx.I.on_op I.Op_int;
           let r = I.int_binop op a b ~unsigned:true in
           if cmp then I.tv (V.VInt r) (TScalar Int)
           else I.tv (V.VInt (V.wrap_int UInt r)) (TScalar UInt)
         | TScalar Float, TScalar Float, V.VFloat a, V.VFloat b ->
           ctx.I.on_op I.Op_float;
           (match I.float_binop op a b with
            | r when cmp -> I.tv r (TScalar Int)
            | V.VFloat f -> I.tv (V.VFloat (V.round_float Float f)) (TScalar Float)
            | r -> I.tv r (TScalar Float))
         | _ -> I.binop ctx op x y)
  | _ -> None

(* Register-write normalization: exactly the store+load roundtrip the
   interpreter performs through a variable of the declared type,
   minus the memory traffic.  Promoted variables are scalars or
   pointers only (see Lower.promotable). *)
let normalizer lt (ty : ty) : I.tval -> I.tval =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double) as s) ->
    fun x -> I.tv (V.VFloat (V.round_float s (V.to_float x.I.v))) ty
  | TScalar s when s <> Void ->
    fun x -> I.tv (V.VInt (V.wrap_int s (V.to_int x.I.v))) ty
  | TPtr _ ->
    fun x -> I.tv (V.VInt (V.to_int x.I.v)) ty
  | _ -> fun x -> I.tv x.I.v ty

(* ------------------------------------------------------------------ *)
(* Module state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  e_layout : Layout.env;
  e_md : Lower.modl;
  e_fold_ctx : I.ctx;                                   (* for Passes.run *)
  e_funcs : (string, func) Hashtbl.t;                   (* AST functions *)
  e_ir : (string, (Core.fn, string) result) Hashtbl.t;  (* optimized IR *)
  e_stats : (string, Passes.stats) Hashtbl.t;
  e_wrappers : (string, I.ctx -> I.tval array -> I.tval) Hashtbl.t;
}

(* Wrapper building mutates [e_wrappers] (and on-demand lowering
   [e_ir]); one process-wide lock serialises it, with a domain-local
   re-entrancy flag since building a wrapper can resolve callees. *)
let emit_lock = Mutex.create ()
let emit_lock_held = Domain.DLS.new_key (fun () -> false)

let with_emit_lock f =
  if Domain.DLS.get emit_lock_held then f ()
  else begin
    Mutex.lock emit_lock;
    Domain.DLS.set emit_lock_held true;
    Fun.protect
      ~finally:(fun () ->
          Domain.DLS.set emit_lock_held false;
          Mutex.unlock emit_lock)
      f
  end

(* Per-function build state. *)
type bst = {
  est : t;
  fmem : Core.minfo array;
  sited : bool;
}

let rd (o : Core.operand) : renv -> I.tval =
  match o with
  | Core.Reg r -> fun env -> env.regs.(r)
  | Core.Cst t -> fun _ -> t

(* ------------------------------------------------------------------ *)
(* Lvalues                                                             *)
(* ------------------------------------------------------------------ *)

let rec emit_lv (bst : bst) (lv : Core.lv) : clv =
  match lv with
  | Core.LvVar v ->
    let ty = bst.fmem.(v).Core.m_ty in
    CMem
      ( (fun env ->
           let b = env.mem.(v) in
           (b.I.b_space, b.I.b_addr)),
        ty )
  | Core.LvFree name ->
    CDyn
      (fun env ->
         match I.lookup env.ctx name with
         | Some b -> DMem (b.I.b_space, b.I.b_addr, b.I.b_ty)
         | None -> I.fail "unbound variable %s (as lvalue)" name)
  | Core.LvIdx (a, i, elt, esz) ->
    let ca = rd a and ci = rd i in
    CMem
      ( (fun env ->
           let base = V.to_int (ca env).I.v in
           if V.is_null base then I.fail "null pointer indexed";
           let addr =
             Int64.add base (Int64.mul (V.to_int (ci env).I.v) (Int64.of_int esz))
           in
           (V.ptr_space addr, V.ptr_offset addr)),
        elt )
  | Core.LvDeref p ->
    let cp = rd p in
    CDyn
      (fun env ->
         let pv = cp env in
         let ptr = V.to_int pv.I.v in
         if V.is_null ptr then I.fail "null pointer dereference";
         let pointee =
           match Layout.resolve env.ctx.I.layout pv.I.ty with
           | TPtr t | TArr (t, _) | TRef t -> t
           | _ -> TScalar Int
         in
         DMem (V.ptr_space ptr, V.ptr_offset ptr, pointee))
  | Core.LvIdxDyn (a, i, blv) ->
    let ca = rd a and ci = rd i in
    let cbl = Option.map (emit_lv bst) blv in
    CDyn
      (fun env ->
         let av = ca env in
         let iv = ci env in
         match Layout.resolve env.ctx.I.layout av.I.ty with
         | TPtr elt | TArr (elt, _) ->
           let esz = Layout.sizeof env.ctx.I.layout elt in
           let base = V.to_int av.I.v in
           if V.is_null base then I.fail "null pointer indexed";
           let addr =
             Int64.add base (Int64.mul (V.to_int iv.I.v) (Int64.of_int esz))
           in
           DMem (V.ptr_space addr, V.ptr_offset addr, elt)
         | TVec (s, _) when cbl <> None ->
           (match run_lv env (Option.get cbl) with
            | DMem (sp, addr, _) ->
              DVec (sp, addr, s, [| Int64.to_int (V.to_int iv.I.v) |])
            | DVec _ -> I.fail "nested vector index")
         | t -> I.fail "cannot index type %s" (show_ty t))
  | Core.LvSwz (l, idx, s) ->
    let cl = emit_lv bst l in
    CDyn
      (fun env ->
         match run_lv env cl with
         | DMem (sp, addr, _) -> DVec (sp, addr, s, idx)
         | DVec (sp, addr, s', outer) ->
           let n = Array.length outer in
           DVec
             ( sp, addr, s',
               Array.map
                 (fun i ->
                    if i >= 0 && i < n then outer.(i)
                    else I.fail "vector component index %d out of range" i)
                 idx ))

(* ------------------------------------------------------------------ *)
(* Rhs                                                                 *)
(* ------------------------------------------------------------------ *)

(* Lazily resolved callee wrapper: IR when available, the interpreter
   otherwise; prototypes fail at call time like the interpreter. *)
let rec resolve_wrapper (est : t) (name : string) : I.ctx -> I.tval array -> I.tval =
  with_emit_lock (fun () ->
      match Hashtbl.find_opt est.e_wrappers name with
      | Some w -> w
      | None ->
        let w =
          match Hashtbl.find_opt est.e_ir name with
          | Some (Ok fn) -> prepare_fn est fn
          | _ ->
            (match Hashtbl.find_opt est.e_funcs name with
             | Some ({ fn_body = Some _; _ } as f) ->
               fun ctx args -> I.call_function ctx f (Array.to_list args)
             | Some { fn_body = None; _ } ->
               fun _ _ -> I.fail "calling prototype %s" name
             | None -> fun _ _ -> I.fail "unknown function %s" name)
        in
        Hashtbl.replace est.e_wrappers name w;
        w)

and emit_rhs (bst : bst) (rhs : Core.rhs) : renv -> I.tval =
  let lt = bst.est.e_layout in
  match rhs with
  | Core.Free name ->
    fun env ->
      let ctx = env.ctx in
      (match I.lookup ctx name with
       | Some b -> I.tv (I.load ctx b.I.b_space b.I.b_addr b.I.b_ty) b.I.b_ty
       | None ->
         (match ctx.I.special_ident name with
          | Some t -> t
          | None -> I.fail "unbound identifier %s" name))
  | Core.Bin (op, a, b) ->
    let ca = rd a and cb = rd b in
    (match fast_binop op with
     | Some f -> fun env -> f env.ctx (ca env) (cb env)
     | None -> fun env -> I.binop env.ctx op (ca env) (cb env))
  | Core.Un (u, a) ->
    let ca = rd a in
    (match u with
     | Core.UNeg ->
       fun env ->
         let x = ca env in
         env.ctx.I.on_op
           (if I.is_float_ty env.ctx x.I.ty then I.Op_float else I.Op_int);
         (match x.I.v with
          | V.VFloat f -> I.tv (V.VFloat (-.f)) x.I.ty
          | V.VInt n -> I.tv (V.VInt (Int64.neg n)) x.I.ty
          | V.VVec c ->
            I.tv
              (V.VVec
                 (Array.map
                    (function
                      | V.VFloat f -> V.VFloat (-.f)
                      | V.VInt n -> V.VInt (Int64.neg n)
                      | v -> v)
                    c))
              x.I.ty
          | V.VUnit -> I.fail "negating unit")
     | Core.ULnot ->
       fun env ->
         let x = ca env in
         env.ctx.I.on_op I.Op_int;
         I.tv (V.of_bool (not (V.to_bool x.I.v))) (TScalar Int)
     | Core.UBnot ->
       fun env ->
         let x = ca env in
         env.ctx.I.on_op I.Op_int;
         I.tv (V.VInt (Int64.lognot (V.to_int x.I.v))) x.I.ty
     | Core.UBool ->
       fun env ->
         let x = ca env in
         I.tv (V.of_bool (V.to_bool x.I.v)) (TScalar Int))
  | Core.CastV (t, a) ->
    let ca = rd a in
    fun env -> I.cast_value env.ctx t (ca env)
  | Core.CastRet (t, a) ->
    let ca = rd a in
    fun env ->
      let x = ca env in
      if equal_ty x.I.ty t then x else I.cast_value env.ctx t x
  | Core.Mov a -> rd a
  | Core.ReadLv lv ->
    (match emit_lv bst lv with
     | CMem (f, ty) ->
       let cl = compiled_load lt ty in
       fun env ->
         let sp, addr = f env in
         I.tv (cl env.ctx sp addr) ty
     | CDyn f -> fun env -> load_dlv env.ctx (f env))
  | Core.AddrofLv lv ->
    (match emit_lv bst lv with
     | CMem (f, ty) ->
       fun env ->
         let sp, addr = f env in
         I.tv (V.VInt (V.make_ptr sp addr)) (TPtr ty)
     | CDyn f ->
       fun env ->
         (match f env with
          | DMem (sp, addr, ty) -> I.tv (V.VInt (V.make_ptr sp addr)) (TPtr ty)
          | DVec (sp, addr, s, idx) when Array.length idx > 0 ->
            I.tv
              (V.VInt (V.make_ptr sp (addr + (idx.(0) * scalar_size s))))
              (TPtr (TScalar s))
          | DVec _ -> I.fail "empty vector lvalue"))
  | Core.Swz (a, m, pre) ->
    let ca = rd a in
    let slow env (x : I.tval) =
      match Layout.resolve env.ctx.I.layout x.I.ty with
      | TVec (s, width) ->
        (match I.vec_indices width m with
         | Some [ i ] ->
           (match x.I.v with
            | V.VVec c -> I.tv c.(i) (TScalar s)
            | v -> I.tv v (TScalar s))
         | Some idx ->
           (match x.I.v with
            | V.VVec c ->
              I.tv
                (V.VVec (Array.of_list (List.map (fun i -> c.(i)) idx)))
                (TVec (s, List.length idx))
            | v -> I.tv v (TVec (s, List.length idx)))
         | None -> I.fail "bad component .%s" m)
      | t -> I.fail "cannot access member .%s of %s" m (show_ty t)
    in
    (match pre with
     | Some (_, w, i) ->
       fun env ->
         let x = ca env in
         (match x.I.ty with
          | TVec (s, w') when w' = w ->
            (match x.I.v with
             | V.VVec c -> I.tv c.(i) (TScalar s)
             | v -> I.tv v (TScalar s))
          | _ -> slow env x)
     | None -> fun env -> slow env (ca env))
  | Core.Vecc (t, ops) ->
    let cargs = List.map rd ops in
    (match Layout.resolve lt t with
     | TVec (s, n) ->
       fun env ->
         let comps =
           List.concat_map
             (fun f ->
                match (f env).I.v with
                | V.VVec c -> Array.to_list c
                | v -> [ v ])
             cargs
         in
         let comps =
           if List.length comps = 1 then List.init n (fun _ -> List.hd comps)
           else comps
         in
         if List.length comps < n then I.fail "vector literal too short";
         let conv c =
           if is_float_scalar s then V.VFloat (V.round_float s (V.to_float c))
           else V.VInt (V.wrap_int s (V.to_int c))
         in
         I.tv
           (V.VVec
              (Array.of_list
                 (List.filteri (fun i _ -> i < n) comps |> List.map conv)))
           (TVec (s, n))
     | _ ->
       (match cargs with
        | ca :: _ -> fun env -> I.cast_value env.ctx t (ca env)
        | [] -> fun _ -> I.fail "empty vector literal"))
  | Core.Special name ->
    fun env ->
      (match env.ctx.I.special_ident name with
       | Some t -> t
       | None -> I.fail "unbound identifier %s" name)
  | Core.CallE (name, ops) ->
    let cargs = List.map rd ops in
    fun env ->
      let ctx = env.ctx in
      let argv = List.map (fun f -> f env) cargs in
      (match Hashtbl.find_opt ctx.I.externals name with
       | Some ext -> ext ctx argv
       | None ->
         (match I.default_builtin ctx name argv with
          | Some r -> r
          | None ->
            if name = "dim3" then begin
              let addr =
                Memory.alloc (ctx.I.arena_of ctx.I.stack_space) ~align:4 12
              in
              let a = ctx.I.arena_of ctx.I.stack_space in
              let get i =
                match List.nth_opt argv i with
                | Some a -> V.to_int a.I.v
                | None -> 1L
              in
              Memory.store_int a addr 4 (get 0);
              Memory.store_int a (addr + 4) 4 (get 1);
              Memory.store_int a (addr + 8) 4 (get 2);
              I.tv (V.VInt (V.make_ptr ctx.I.stack_space addr)) (TNamed "dim3")
            end
            else I.fail "unknown function %s" name))
  | Core.CallU (name, ops) ->
    let cargs = Array.of_list (List.map rd ops) in
    let est = bst.est in
    let cached = ref None in
    fun env ->
      let w =
        match !cached with
        | Some w -> w
        | None ->
          let w = resolve_wrapper est name in
          cached := Some w;
          w
      in
      let n = Array.length cargs in
      let argv = Array.make n I.tunit in
      for i = 0 to n - 1 do
        argv.(i) <- cargs.(i) env
      done;
      w env.ctx argv

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

and emit_ikind (bst : bst) (k : Core.ikind) : renv -> unit =
  let lt = bst.est.e_layout in
  match k with
  | Core.Let (r, rhs) ->
    let f = emit_rhs bst rhs in
    fun env -> env.regs.(r) <- f env
  | Core.SetReg (r, ty, o) ->
    let co = rd o in
    let norm = normalizer lt ty in
    fun env -> env.regs.(r) <- norm (co env)
  | Core.SetRaw (r, o) ->
    let co = rd o in
    fun env -> env.regs.(r) <- co env
  | Core.Store (lv, o) ->
    let co = rd o in
    (match emit_lv bst lv with
     | CMem (f, ty) ->
       let cs = compiled_store lt ty in
       fun env ->
         let sp, addr = f env in
         cs env.ctx sp addr (co env).I.v
     | CDyn f -> fun env -> store_dlv env.ctx (f env) (co env))
  | Core.Do rhs ->
    let f = emit_rhs bst rhs in
    fun env -> ignore (f env)
  | Core.Barrier (name, ops, _removable) ->
    (* a surviving barrier is a plain external call; the barrier effect
       comes from the launcher's registered external *)
    let f = emit_rhs bst (Core.CallE (name, ops)) in
    fun env -> ignore (f env)
  | Core.DeclMem v ->
    let m = bst.fmem.(v) in
    if m.Core.m_shared then
      fun env ->
        (match I.lookup env.ctx "$dynshared" with
         | Some b ->
           env.mem.(v) <-
             { I.b_space = b.I.b_space; b_addr = b.I.b_addr; b_ty = m.Core.m_ty }
         | None -> I.fail "extern __shared__ outside a kernel launch")
    else begin
      let fixed = if m.Core.m_space <> AS_none then Some m.Core.m_space else None in
      let size = m.Core.m_size and align = m.Core.m_align in
      let name = m.Core.m_name and ty = m.Core.m_ty in
      fun env ->
        let ctx = env.ctx in
        let space =
          match fixed with Some s -> s | None -> ctx.I.stack_space
        in
        let addr =
          match space, ctx.I.group_locals with
          | AS_local, Some tbl ->
            (match Hashtbl.find_opt tbl name with
             | Some addr -> addr
             | None ->
               let addr = Memory.alloc (ctx.I.arena_of AS_local) ~align size in
               Hashtbl.replace tbl name addr;
               addr)
          | _ -> Memory.alloc (ctx.I.arena_of space) ~align size
        in
        env.mem.(v) <- { I.b_space = space; b_addr = addr; b_ty = ty }
    end
  | Core.ZeroFill v ->
    let zeros = Bytes.make bst.fmem.(v).Core.m_size '\000' in
    fun env ->
      let b = env.mem.(v) in
      Memory.store_bytes (env.ctx.I.arena_of b.I.b_space) b.I.b_addr zeros
  | Core.StoreElt (v, off, ty, o) ->
    let co = rd o in
    let cs = compiled_store lt ty in
    fun env ->
      let b = env.mem.(v) in
      cs env.ctx b.I.b_space (b.I.b_addr + off) (co env).I.v
  | Core.Elim n ->
    fun env -> env.ctx.I.on_elim n

(* ------------------------------------------------------------------ *)
(* Control flow                                                        *)
(* ------------------------------------------------------------------ *)

(* Attribution sites are set statically: a closure is inserted whenever
   the build-time tracked site differs from the instruction's tag, so
   straight-line runs inside one source site pay nothing.  Functions
   without any site tag skip the machinery entirely — their charges all
   land on the caller's current site, exactly like the closure
   backend's un-instrumented statements. *)
and set_site_closure (s : int) : renv -> unit =
  if s < 0 then fun env -> env.ctx.I.cur_site := env.ambient
  else fun env -> env.ctx.I.cur_site := s

and emit_body (bst : bst) (tracked : int option) (b : Core.body) : renv -> unit =
  let rec build tracked acc = function
    | [] -> acc
    | Core.Ins i :: rest ->
      let acc, tracked =
        if bst.sited && tracked <> Some i.Core.i_site then
          (set_site_closure i.Core.i_site :: acc, Some i.Core.i_site)
        else (acc, tracked)
      in
      build tracked (emit_ikind bst i.Core.i_kind :: acc) rest
    | Core.If (site, c, t, e) :: rest ->
      let acc =
        if bst.sited && tracked <> Some site then set_site_closure site :: acc
        else acc
      in
      let cc = rd c in
      let ct = emit_body bst (Some site) t in
      let ce = emit_body bst (Some site) e in
      let f env =
        env.ctx.I.on_op I.Op_branch;
        if I.obs_branch env.ctx (V.to_bool (cc env).I.v) then ct env else ce env
      in
      build None (f :: acc) rest
    | Core.Loop l :: rest -> build None (emit_loop bst l :: acc) rest
    | Core.Return o :: rest ->
      let f =
        match o with
        | None -> fun _ -> raise (I.Return_exc I.tunit)
        | Some o ->
          let co = rd o in
          fun env -> raise (I.Return_exc (co env))
      in
      build tracked (f :: acc) rest
    | Core.Break :: rest ->
      build tracked ((fun _ -> raise I.Break_exc) :: acc) rest
    | Core.Continue :: rest ->
      build tracked ((fun _ -> raise I.Continue_exc) :: acc) rest
  in
  match Array.of_list (List.rev (build tracked [] b)) with
  | [||] -> fun _ -> ()
  | [| f |] -> f
  | cls ->
    fun env ->
      for k = 0 to Array.length cls - 1 do
        (Array.unsafe_get cls k) env
      done

and emit_loop (bst : bst) (l : Core.loop) : renv -> unit =
  let init = emit_body bst None l.Core.l_init in
  let pre = emit_body bst None l.Core.l_pre in
  let cond =
    Option.map
      (fun (cb, co) -> (emit_body bst None cb, rd co))
      l.Core.l_cond
  in
  let body = emit_body bst None l.Core.l_body in
  let update = emit_body bst None l.Core.l_update in
  let set_site =
    if bst.sited then set_site_closure l.Core.l_site else fun _ -> ()
  in
  match l.Core.l_kind with
  | `While | `For ->
    fun env ->
      init env;
      pre env;
      (try
         while
           set_site env;
           env.ctx.I.on_op I.Op_branch;
           match cond with
           | None -> true
           | Some (cb, co) ->
             cb env;
             I.obs_branch env.ctx (V.to_bool (co env).I.v)
         do
           (try body env with I.Continue_exc -> ());
           update env
         done
       with I.Break_exc -> ())
  | `DoWhile ->
    fun env ->
      init env;
      pre env;
      (try
         let continue_ = ref true in
         while !continue_ do
           (try body env with I.Continue_exc -> ());
           set_site env;
           env.ctx.I.on_op I.Op_branch;
           (match cond with
            | None -> continue_ := false
            | Some (cb, co) ->
              cb env;
              continue_ := I.obs_branch env.ctx (V.to_bool (co env).I.v))
         done
       with I.Break_exc -> ())

(* ------------------------------------------------------------------ *)
(* Function wrappers (mirror Interp.call_function)                     *)
(* ------------------------------------------------------------------ *)

and prepare_fn (est : t) (fn : Core.fn) : I.ctx -> I.tval array -> I.tval =
  let bst = { est; fmem = fn.Core.f_mem; sited = fn.Core.f_sited } in
  let fname = fn.Core.f_name in
  let binders =
    Array.mapi
      (fun i (p : Core.pbind) ->
         let norm = normalizer est.e_layout p.Core.p_ty in
         let r = p.Core.p_reg in
         fun env (args : I.tval array) ->
           let arg =
             if i < Array.length args then args.(i)
             else I.fail "missing argument %d in call to %s" (i + 1) fname
           in
           env.regs.(r) <- norm arg)
      fn.Core.f_params
  in
  let body = emit_body bst (Some (-1)) fn.Core.f_body in
  let nregs = fn.Core.f_nregs in
  let nmem = Array.length fn.Core.f_mem in
  let sited = fn.Core.f_sited in
  let ret = fn.Core.f_ret in
  fun ctx args ->
    ctx.I.call_depth <- ctx.I.call_depth + 1;
    if ctx.I.call_depth > 512 then begin
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      I.fail "call depth exceeded in %s" fname
    end;
    let arena = ctx.I.arena_of ctx.I.stack_space in
    let m = Memory.mark arena in
    (match ctx.I.observer with Some o -> o.I.obs_enter fname | None -> ());
    let obs_leave () =
      match ctx.I.observer with Some o -> o.I.obs_leave fname | None -> ()
    in
    let ambient = !(ctx.I.cur_site) in
    let env =
      { ctx;
        regs = Array.make nregs I.tunit;
        mem = (if nmem = 0 then [||] else Array.make nmem dummy_binding);
        ambient }
    in
    let restore () = if sited then ctx.I.cur_site := ambient in
    match
      Array.iter (fun b -> b env args) binders;
      body env
    with
    | () ->
      Memory.release arena m;
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      restore ();
      obs_leave ();
      I.tunit
    | exception I.Return_exc v ->
      Memory.release arena m;
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      restore ();
      obs_leave ();
      if equal_ty v.I.ty ret then v else I.cast_value ctx ret v
    | exception e ->
      Memory.release arena m;
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      restore ();
      obs_leave ();
      raise e

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Optimize and verify one lowered function. *)
let optimize ~fold_ctx ~cfg stats name = function
  | Ok fn ->
    let fn, st = Passes.run ~fold_ctx ~cfg fn in
    Hashtbl.replace stats name st;
    (* safety net: a pass bug demotes the function to the interpreter
       instead of executing broken code *)
    (match Verify.check fn with
     | [] -> Ok fn
     | e :: _ -> Error (Printf.sprintf "verifier: %s" e))
  | Error _ as e -> e

let make ?special_ty ~(cfg : Pipeline.config) (prog : program) : t =
  let md, lowered = Lower.make ?special_ty ~cfg prog in
  let funcs = Hashtbl.create 31 in
  List.iter
    (function TFunc f -> Hashtbl.replace funcs f.fn_name f | _ -> ())
    prog;
  let fold_arena = Memory.create ~initial:64 "ir.fold" in
  let fold_ctx = I.make ~prog ~arena_of:(fun _ -> fold_arena) () in
  let e_ir = Hashtbl.create 31 in
  let e_stats = Hashtbl.create 31 in
  List.iter
    (fun (n, r) -> Hashtbl.replace e_ir n (optimize ~fold_ctx ~cfg e_stats n r))
    lowered;
  { e_layout = md.Lower.md_layout;
    e_md = md;
    e_fold_ctx = fold_ctx;
    e_funcs = funcs;
    e_ir;
    e_stats;
    e_wrappers = Hashtbl.create 15 }

(* IR-compiled entry for [f], or None when lowering rejected it (the
   caller runs it on the interpreter).  A function that is not part of
   the module — a template specialisation the launcher built with
   [Minic.Specialize.func] — is lowered on first use and cached under
   its (mangled) name. *)
let prepare (est : t) (f : func) : (I.ctx -> I.tval array -> I.tval) option =
  let name = f.fn_name in
  with_emit_lock (fun () ->
      if not (Hashtbl.mem est.e_ir name || Hashtbl.mem est.e_funcs name) then
        Hashtbl.replace est.e_ir name
          (optimize ~fold_ctx:est.e_fold_ctx ~cfg:est.e_md.Lower.md_cfg
             est.e_stats name (Lower.lower_one est.e_md f));
      match Hashtbl.find_opt est.e_ir name with
      | Some (Ok _) -> Some (resolve_wrapper est name)
      | _ -> None)

let ir (est : t) name : (Core.fn, string) result option =
  with_emit_lock (fun () -> Hashtbl.find_opt est.e_ir name)

let stats (est : t) name : Passes.stats option =
  with_emit_lock (fun () -> Hashtbl.find_opt est.e_stats name)

let function_names (est : t) : string list =
  with_emit_lock (fun () ->
      Hashtbl.fold (fun n _ acc -> n :: acc) est.e_ir [] |> List.sort compare)
