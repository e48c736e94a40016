(* Order statistics for latency samples and run-to-run spreads. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  Always an observed value, never an
   interpolation, so [percentile 99.] of 1,500 latencies has exactly 15
   samples beyond it. *)
let percentile p values =
  match sorted values with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a ->
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median values =
  match sorted values with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by Python's [statistics.quantiles(values,
   n=4)] (its default "exclusive" method), so spreads computed here match
   those computed with Python.  A single sample has no spread: both
   quartiles are that sample. *)
let quartiles values =
  match sorted values with
  | [||] -> invalid_arg "Stats.quartiles: no samples"
  | [| x |] -> (x, x)
  | a ->
    let len = Array.length a in
    let m = len + 1 in
    let cut i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 3)

(* Interquartile distance as a share of the median: the run-to-run
   spread a bound is compared against. *)
let relative_spread values =
  let q1, q3 = quartiles values in
  let med = median values in
  if med = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs med
