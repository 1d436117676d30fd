(* Order statistics for the benchmark's latency reports.

   A timing is reported as its median and the highest percentile that
   still has at least [min_beyond] samples beyond it, so a tail figure is
   never read off a handful of points.  Percentiles are nearest-rank and
   held in per mille to keep the rank arithmetic exact. *)

let min_beyond = 10

(* Candidate tail percentiles, highest first, in per mille. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

(* Rank (1-based) of the [pm] per-mille nearest-rank percentile of [n]
   samples. *)
let rank ~n pm = max 1 ((pm * n + 999) / 1000)

(* Samples ranked strictly above the [pm] percentile. *)
let beyond ~n pm = n - rank ~n pm

(* The highest percentile of [ladder] with at least [min_beyond]
   samples beyond it, or [None] when [n] is too small for any. *)
let tail_permille n =
  List.find_opt (fun pm -> beyond ~n pm >= min_beyond) ladder

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* [pm] per-mille percentile of an already sorted, non-empty array. *)
let percentile sorted_xs pm =
  sorted_xs.(rank ~n:(Array.length sorted_xs) pm - 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
