(* Seeded op order.  The workload seed picks, for every pass, a
   permutation of the pass's ops; the same seed always gives the same
   sequence of permutations.  splitmix64 keeps the stream independent of
   the OCaml runtime's [Random] implementation. *)

let splitmix (st : int64 ref) =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, bound) for the small bounds used here. *)
let below st bound =
  Int64.to_int (Int64.unsigned_rem (splitmix st) (Int64.of_int bound))

(* Fisher-Yates permutation of [0, n) for pass [pass] under [seed]. *)
let permutation ~seed ~pass n =
  let st = ref (Int64.of_int seed) in
  st := Int64.logxor (splitmix st) (Int64.of_int pass);
  ignore (splitmix st);
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = below st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
