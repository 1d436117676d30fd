(* In-memory span log for the traced run.

   A span is one timed call into a layer's public function: its name, its
   start and end on {!Clock}, the span open around it when it started
   (its parent, -1 at the top) and the op it belongs to.  Spans are
   appended to a growable array and only written out once the run is
   over, so recording costs two clock reads and one allocation.

   While [enabled] is false, [wrap name f] is just [f ()]. *)

type span = { name : int; t0 : int; t1 : int; parent : int; op : int }

(* --- span names, interned so a span stores an int ------------------ *)

let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let name_list : string array ref = ref [||]

let intern s =
  match Hashtbl.find_opt name_ids s with
  | Some i -> i
  | None ->
    let i = Array.length !name_list in
    Hashtbl.replace name_ids s i;
    name_list := Array.append !name_list [| s |];
    i

let name_of i = !name_list.(i)

(* --- the log ------------------------------------------------------- *)

let enabled = ref false
let current_op = ref (-1)

let dummy = { name = -1; t0 = 0; t1 = 0; parent = -1; op = -1 }
let log = ref (Array.make 4096 dummy)
let count = ref 0
let open_span = ref (-1)

let clear () =
  count := 0;
  open_span := -1

let push s =
  if !count = Array.length !log then begin
    let bigger = Array.make (2 * !count) dummy in
    Array.blit !log 0 bigger 0 !count;
    log := bigger
  end;
  !log.(!count) <- s;
  incr count

(* A span's slot is reserved when it opens, so parents precede their
   children in the log; its end is filled in when it closes. *)
let wrap name f =
  if not !enabled then f ()
  else begin
    let i = !count in
    let parent = !open_span in
    push { name; t0 = Clock.now_ns (); t1 = 0; parent; op = !current_op };
    open_span := i;
    let close () =
      let s = !log.(i) in
      !log.(i) <- { s with t1 = Clock.now_ns () };
      open_span := parent
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

let spans () = Array.sub !log 0 !count

(* --- derived times ------------------------------------------------- *)

(* Self time of every span: its duration minus the durations of its
   direct children.  Children run inside their parent on the same
   domain, so they never overlap each other. *)
let self_ns (spans : span array) =
  let self = Array.map (fun s -> s.t1 - s.t0) spans in
  Array.iter
    (fun s ->
       if s.parent >= 0 then
         self.(s.parent) <- self.(s.parent) - (s.t1 - s.t0))
    spans;
  self

(* Summed self time and call count per span name. *)
let by_name (spans : span array) : (string, int * int) Hashtbl.t =
  let self = self_ns spans in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
       let n = name_of s.name in
       let t, c = Option.value (Hashtbl.find_opt tbl n) ~default:(0, 0) in
       Hashtbl.replace tbl n (t + self.(i), c + 1))
    spans;
  tbl

(* Tab-separated dump, one span per line, for offline inspection. *)
let write oc (spans : span array) =
  output_string oc "name\tstart_ns\tend_ns\tparent\top\n";
  Array.iter
    (fun s ->
       Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" (name_of s.name) s.t0 s.t1
         s.parent s.op)
    spans
