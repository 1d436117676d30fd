(* Cross-block dependence detection for the domain-parallel executor.

   The parallel mode is optimistic: thread blocks run concurrently while
   every access they make to a *shared* address space (global, constant,
   host) is logged per block.  After the join, the logs are checked for
   cross-block dependences; if any exist the attempt is rolled back and
   the launch replays sequentially, so the observable behaviour is the
   sequential one by construction.

   Ordinary accesses are kept as byte intervals (coalesced on append:
   per-item streaming patterns collapse to a handful of ranges).  Atomic
   read-modify-writes are kept separately as exact cells tagged with a
   commutativity class: same-class atomics on the same cell commute —
   the final memory value is independent of interleaving — provided no
   kernel ever *uses* an atomic's return value, which a static scan of
   the launched code establishes up front.

   Cost model.  Logging appends to flat int buffers, O(1) per access.
   The check is O(n log n) in the n logged entries of all blocks and
   has no pairwise loop: each block's intervals are sorted and merged,
   atomics are grouped by exact cell with one sort, and then every
   write, read and atomic-cell interval, tagged with its owner, is
   sorted once by start and swept once.  Per kind, the sweep keeps the
   two largest ends owned by distinct owners, which answers "does an
   earlier interval of another owner reach past this start?" in O(1). *)

open Minic.Ast

(* Commutativity class of an atomic RMW.  [Kadd] covers add and subtract
   on integers (modular, so order-free); [Kinc]/[Kdec] are CUDA's
   wrapping increment/decrement, order-free only among ops with the same
   bound (an unsigned 32-bit value); [Kother] (exchange,
   compare-and-swap, any float op — rounding is order-sensitive) never
   commutes across blocks. *)
type klass =
  | Kadd
  | Kmin
  | Kmax
  | Kinc of int64
  | Kdec of int64
  | Kother

(* One int per class; injective while bounds stay below 2^61. *)
let klass_code = function
  | Kadd -> 0
  | Kmin -> 1
  | Kmax -> 2
  | Kother -> 3
  | Kinc b -> 4 + (2 * Int64.to_int b)
  | Kdec b -> 5 + (2 * Int64.to_int b)

(* Shared address spaces are logged into one flat address line; tagging
   keeps offsets from different arenas from colliding.  Arena offsets
   are far below 2^45. *)
let tag (space : addr_space) addr =
  match space with
  | AS_global -> addr
  | AS_constant -> addr + (1 lsl 45)
  | AS_none -> addr + (2 lsl 45)
  | AS_local | AS_private -> addr  (* never logged *)

(* --- flat int buffers ---------------------------------------------- *)

(* Fixed-width records of ints, appended in place. *)
type ibuf = {
  mutable buf : int array;
  mutable len : int;
}

let ibuf_create () = { buf = Array.make 32 0; len = 0 }

(* Room for [k] more ints. *)
let reserve l k =
  if l.len + k > Array.length l.buf then begin
    let bigger = Array.make (max (2 * Array.length l.buf) (l.len + k)) 0 in
    Array.blit l.buf 0 bigger 0 l.len;
    l.buf <- bigger
  end

(* Orders the records at offsets [i] and [j] of [b] by their first two
   ints. *)
let by_first_two b i j =
  let c = Int.compare b.(i) b.(j) in
  if c <> 0 then c else Int.compare b.(i + 1) b.(j + 1)

(* Offsets of the [stride]-wide records of [l], sorted by [cmp]. *)
let sorted_offsets l ~stride cmp =
  let idx = Array.init (l.len / stride) (fun i -> stride * i) in
  Array.stable_sort cmp idx;
  idx

(* --- per-block logs ---------------------------------------------------- *)

(* Interval logs are [lo; hi) pairs.  Appends that extend or repeat the
   previous interval merge in place, which collapses the common
   streaming access patterns to O(1) entries. *)
let ilog_push l lo hi =
  if l.len >= 2 && l.buf.(l.len - 2) <= lo && lo <= l.buf.(l.len - 1) then begin
    if hi > l.buf.(l.len - 1) then l.buf.(l.len - 1) <- hi
  end
  else begin
    reserve l 2;
    l.buf.(l.len) <- lo;
    l.buf.(l.len + 1) <- hi;
    l.len <- l.len + 2
  end

(* [ilog_finalize l f] calls [f lo hi] on each interval of [l] sorted by
   (lo, hi), with overlapping or touching intervals merged. *)
let ilog_finalize l f =
  let b = l.buf in
  let idx = sorted_offsets l ~stride:2 (by_first_two b) in
  let n = Array.length idx in
  if n > 0 then begin
    let lo = ref b.(idx.(0)) and hi = ref b.(idx.(0) + 1) in
    for k = 1 to n - 1 do
      let i = idx.(k) in
      if b.(i) <= !hi then begin
        if b.(i + 1) > !hi then hi := b.(i + 1)
      end
      else begin
        f !lo !hi;
        lo := b.(i);
        hi := b.(i + 1)
      end
    done;
    f !lo !hi
  end

type block_log = {
  lb_block : int;                          (* linear block id *)
  lb_reads : ibuf;
  lb_writes : ibuf;
  lb_atomics : ibuf;                (* addr, size, block, class code *)
}

let block_log block =
  { lb_block = block;
    lb_reads = ibuf_create ();
    lb_writes = ibuf_create ();
    lb_atomics = ibuf_create () }

let record_read b addr size = ilog_push b.lb_reads addr (addr + size)
let record_write b addr size = ilog_push b.lb_writes addr (addr + size)

(* An immediate repeat of the previous (cell, class) is not stored. *)
let record_atomic b addr size k =
  let l = b.lb_atomics and code = klass_code k in
  let n = l.len in
  if not (n >= 4 && l.buf.(n - 4) = addr && l.buf.(n - 3) = size
          && l.buf.(n - 1) = code)
  then begin
    reserve l 4;
    l.buf.(n) <- addr;
    l.buf.(n + 1) <- size;
    l.buf.(n + 2) <- b.lb_block;
    l.buf.(n + 3) <- code;
    l.len <- n + 4
  end

(* --- the cross-block check ----------------------------------------- *)

(* Sweep entry kinds. *)
let k_write = 0
let k_read = 1
let k_atomic = 2

(* [check logs ~atomics_clean] returns [Some reason] if running the
   logged blocks concurrently could be observed — a cross-block overlap
   involving a write, or atomics that do not provably commute.
   [atomics_clean = false] means some reachable code uses an atomic's
   return value, so atomics are treated as ordinary read-writes.

   Two intervals of different owners conflict when they overlap, unless
   both are reads.  An atomic cell that several blocks touched either
   conflicts on the spot (two classes, or [Kother]) or commutes; a
   commuting cell enters the sweep once, under a fresh negative owner
   no block has, so every other interval overlapping it conflicts. *)
let check (logs : block_log list) ~atomics_clean : string option =
  (* sweep entries: lo, hi, owner, kind *)
  let ent = ibuf_create () in
  let push lo hi owner kind =
    reserve ent 4;
    let e = ent.buf and n = ent.len in
    e.(n) <- lo;
    e.(n + 1) <- hi;
    e.(n + 2) <- owner;
    e.(n + 3) <- kind;
    ent.len <- n + 4
  in
  (* atomic records of all blocks *)
  let atoms = ibuf_create () in
  List.iter
    (fun b ->
       let blk = b.lb_block in
       ilog_finalize b.lb_writes (fun lo hi -> push lo hi blk k_write);
       ilog_finalize b.lb_reads (fun lo hi -> push lo hi blk k_read);
       let l = b.lb_atomics in
       reserve atoms l.len;
       Array.blit l.buf 0 atoms.buf atoms.len l.len;
       atoms.len <- atoms.len + l.len)
    logs;
  (* group atomics by exact cell, entries of one cell ordered by block *)
  let a = atoms.buf in
  let idx =
    sorted_offsets atoms ~stride:4 (fun i j ->
        let c = by_first_two a i j in
        if c <> 0 then c else Int.compare a.(i + 2) a.(j + 2))
  in
  let cell_conflict = ref false and fresh = ref 0 in
  let n = Array.length idx in
  let i = ref 0 in
  while !i < n do
    let first = idx.(!i) in
    let addr = a.(first) and size = a.(first + 1) in
    let j = ref (!i + 1) and multi = ref false and uniform = ref true in
    while !j < n && a.(idx.(!j)) = addr && a.(idx.(!j) + 1) = size do
      let e = idx.(!j) in
      if a.(e + 2) <> a.(first + 2) then multi := true;
      if a.(e + 3) <> a.(first + 3) then uniform := false;
      incr j
    done;
    if atomics_clean && !multi then begin
      if !uniform && a.(first + 3) <> klass_code Kother then begin
        decr fresh;
        push addr (addr + size) !fresh k_atomic
      end
      else cell_conflict := true
    end
    else
      for k = !i to !j - 1 do
        let blk = a.(idx.(k) + 2) in
        if k = !i || blk <> a.(idx.(k - 1) + 2) then
          if atomics_clean then push addr (addr + size) blk k_atomic
          else begin
            (* a used atomic result is an ordinary read-modify-write *)
            push addr (addr + size) blk k_write;
            push addr (addr + size) blk k_read
          end
      done;
    i := !j
  done;
  (* the sweep, in (lo, hi) order; per kind: the largest end seen [hi1],
     one owner of it [own1], and the largest end of any other owner *)
  let e = ent.buf in
  let order = sorted_offsets ent ~stride:4 (by_first_two e) in
  let hi1 = Array.make 3 min_int
  and own1 = Array.make 3 min_int
  and hi2 = Array.make 3 min_int in
  (* an earlier [kind] interval of another owner ends past [lo]; with
     (lo, hi) order that is exactly a half-open overlap *)
  let reaches kind lo owner =
    (if own1.(kind) <> owner then hi1.(kind) else hi2.(kind)) > lo
  in
  let ww = ref false and rw = ref false and ao = ref false in
  let aa = ref !cell_conflict in
  Array.iter
    (fun x ->
       let lo = e.(x) and hi = e.(x + 1) and owner = e.(x + 2)
       and kind = e.(x + 3) in
       if kind = k_write then begin
         if reaches k_write lo owner then ww := true;
         if reaches k_read lo owner then rw := true;
         if reaches k_atomic lo owner then ao := true
       end
       else if kind = k_read then begin
         if reaches k_write lo owner then rw := true;
         if reaches k_atomic lo owner then ao := true
       end
       else begin
         if reaches k_write lo owner || reaches k_read lo owner then
           ao := true;
         if reaches k_atomic lo owner then aa := true
       end;
       if owner = own1.(kind) then begin
         if hi > hi1.(kind) then hi1.(kind) <- hi
       end
       else if hi > hi1.(kind) then begin
         hi2.(kind) <- hi1.(kind);
         hi1.(kind) <- hi;
         own1.(kind) <- owner
       end
       else if hi > hi2.(kind) then hi2.(kind) <- hi)
    order;
  if !ww then Some "write/write overlap across blocks"
  else if !rw then Some "read/write overlap across blocks"
  else if !ao then Some "atomic overlaps ordinary access across blocks"
  else if !aa then Some "non-commuting atomics on one cell across blocks"
  else None

(* --- static scan: is any atomic's return value used? ----------------- *)

let atomic_names =
  [ "atomic_add"; "atomic_sub"; "atomic_inc"; "atomic_dec";
    "atomic_min"; "atomic_max"; "atomic_xchg"; "atomic_cmpxchg";
    "atomicAdd"; "atomicSub"; "atomicMin"; "atomicMax";
    "atomicExch"; "atomicCAS"; "atomicInc"; "atomicDec" ]

exception Used

(* [atomic_result_used prog kernel] walks the kernel and every function
   reachable from it.  An atomic call is "discarded" only as the root of
   an expression statement (or a for-loop update); anywhere else its
   value feeds the computation, which makes the interleaving observable
   and forces the sequential-replay path for overlapping atomics.
   Conservative: any consumed position counts, whole-launch granularity. *)
let atomic_result_used (prog : program) (kernel : func) : bool =
  let is_atomic n = List.mem n atomic_names in
  let seen = Hashtbl.create 8 in
  let todo = ref [ kernel ] in
  let note n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      match find_function prog n with
      | Some f when f.fn_body <> None -> todo := f :: !todo
      | _ -> ()
    end
  in
  (* [used] refers to this node's own value *)
  let rec expr used e =
    match e with
    | Call (n, _, args) ->
      if used && is_atomic n then raise Used;
      if not (is_atomic n) then note n;
      List.iter (expr true) args
    | Launch l ->
      note l.l_kernel;
      expr true l.l_grid;
      expr true l.l_block;
      Option.iter (expr true) l.l_shmem;
      Option.iter (expr true) l.l_stream;
      List.iter (expr true) l.l_args
    | Unary (_, a) | Cast (_, a) | StaticCast (_, a)
    | ReinterpretCast (_, a) | Member (a, _) | SizeofE a -> expr true a
    | Binary (_, a, b) | Index (a, b) | Assign (_, a, b) ->
      expr true a; expr true b
    | Cond (c, a, b) -> expr true c; expr true a; expr true b
    | VecLit (_, l) -> List.iter (expr true) l
    | IntLit _ | FloatLit _ | StrLit _ | Ident _ | SizeofT _ -> ()
  in
  let rec init = function
    | IExpr e -> expr true e
    | IList l -> List.iter init l
  in
  let rec stmt = function
    | SExpr e -> expr false e
    | SDecl d -> Option.iter init d.d_init
    | SIf (c, a, b) -> expr true c; stmt a; Option.iter stmt b
    | SWhile (c, b) -> expr true c; stmt b
    | SDoWhile (b, c) -> stmt b; expr true c
    | SFor (i, c, u, b) ->
      Option.iter stmt i;
      Option.iter (expr true) c;
      Option.iter (expr false) u;
      stmt b
    | SReturn e -> Option.iter (expr true) e
    | SBreak | SContinue -> ()
    | SBlock l -> List.iter stmt l
    | SSite (_, s) -> stmt s
  in
  Hashtbl.add seen kernel.fn_name ();
  match
    while !todo <> [] do
      match !todo with
      | [] -> ()
      | f :: rest ->
        todo := rest;
        (match f.fn_body with
         | Some body -> List.iter stmt body
         | None -> ())
    done
  with
  | () -> false
  | exception Used -> true
