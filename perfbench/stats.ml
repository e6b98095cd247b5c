(* Order statistics over request latencies. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least 10 samples above it: the value
   at 0-based rank [n - 11], reported with its percentile.  With 10
   samples or fewer there is no such percentile and the maximum stands
   in, at 100. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, 0.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else
    let k = n - 11 in
    (a.(k), 100.0 *. float_of_int (k + 1) /. float_of_int n)

let sum xs = List.fold_left ( +. ) 0.0 xs

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ -> exp (sum (List.map log xs) /. float_of_int (List.length xs))
