(* Estimators shared by every workload. One run is split into equal
   timed chunks; each estimator first reduces a chunk to one number and
   then takes the median over chunks, so a slow phase of the machine
   that covers fewer than half the chunks does not move the result. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted a in
  if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* fewer samples than this and the tail below would be no tail *)
let min_latency_samples = 40

(* The tail of one chunk: the highest order statistic that still has at
   least ten samples above it, i.e. the (n-10)/n quantile. *)
let tail a =
  let n = Array.length a in
  if n < min_latency_samples then
    invalid_arg "Stats.tail: fewer than 40 samples";
  (sorted a).(n - 11)

let tail_quantile n = float_of_int (n - 10) /. float_of_int n

(* Checks of the estimators against hand-computed values; every run
   executes them before measuring anything. *)
let self_test () =
  let expect name got want =
    if Float.abs (got -. want) > 1e-12 then
      failwith
        (Printf.sprintf "estimator self-test %s: got %g, want %g" name got
           want)
  in
  expect "median odd" (median [| 3.; 1.; 2. |]) 2.;
  expect "median even" (median [| 4.; 1.; 3.; 2. |]) 2.5;
  (* chunk-median rule: five chunk times, two of them in a slow phase *)
  expect "chunk median" (median [| 0.50; 0.49; 1.90; 0.51; 2.20 |]) 0.51;
  expect "ops_per_s" (10_000. /. median [| 0.50; 0.49; 1.90; 0.51; 2.20 |])
    (10_000. /. 0.51);
  (* 1..40: ten samples (31..40) lie above the 30th *)
  expect "tail n=40" (tail (Array.init 40 (fun i -> float_of_int (40 - i)))) 30.;
  (* 1..64 shuffled: ten samples (55..64) lie above the 54th *)
  expect "tail n=64"
    (tail (Array.init 64 (fun i -> float_of_int (((i * 37) mod 64) + 1))))
    54.;
  expect "tail quantile n=64" (tail_quantile 64) 0.84375;
  (* the median of per-chunk tails, not the tail of all samples *)
  let chunk_tails =
    Array.map tail
      [| Array.init 40 (fun i -> float_of_int i);
         Array.init 40 (fun i -> float_of_int (100 + i));
         Array.init 40 (fun i -> float_of_int (10 + i)) |]
  in
  expect "median of chunk tails" (median chunk_tails) 39.;
  match tail (Array.make 39 1.) with
  | exception Invalid_argument _ -> ()
  | _ -> failwith "estimator self-test: tail accepted 39 samples"
