(* Shared plumbing of the benchmark program: clocks, order statistics,
   the outcome tally behind [failed]/[attempted], and the one-line JSON
   result every run ends with. *)

let now_ns () = Obs.Trace.now_ns ()

(* Run [f] and return its result with the elapsed nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, now_ns () - t0)

let timed_s f =
  let x, ns = timed f in
  (x, float ns /. 1e9)

(* Linear-interpolated quantile of an unsorted sample, [q] in [0, 1]. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Util.quantile: empty sample";
  let pos = q *. float (n - 1) in
  let i = int_of_float pos in
  if i + 1 >= n then a.(n - 1)
  else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let mean xs = Array.fold_left ( +. ) 0. xs /. float (Array.length xs)
let geomean xs = exp (mean (Array.map log xs))

(* A growable buffer of float samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Every checked operation goes through [check]: [attempted] counts
   operations, [failed] those with at least one failed output check. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 10 then prerr_endline ("perfbench: check failed: " ^ what)
  end

let error_rate () =
  if tally.attempted = 0 then 1.
  else float tally.failed /. float tally.attempted

let peak_rss_mb () =
  float (Obs.Resource.sample_process ()).Obs.Resource.peak_rss_bytes
  /. 1048576.

(* Nanoseconds per call of [f]: the median over [reps] batches of
   [batch] back-to-back calls. *)
let per_call ?(reps = 5) ?(batch = 8) f =
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to batch do
           f ()
         done;
         float (now_ns () - t0) /. float batch))

(* Timings of [f], repeated while one more call would still end before
   [deadline_ns]; [f] always runs at least once. *)
let repeat_until ~deadline_ns f =
  let samples = Samples.create () in
  let rec go () =
    let (), ns = timed f in
    Samples.add samples (float ns);
    if now_ns () + ns <= deadline_ns then go ()
  in
  go ();
  Samples.to_array samples

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The result line: [correct] holds when no output check failed. *)
let emit metrics =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        failwith (Printf.sprintf "metric %s is not a finite number" m.name))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.name
             m.value m.unit_)
         metrics)
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (tally.failed = 0) tally.attempted tally.failed body;
  print_newline ()

(* Tracing switches for the traced run: the repository's own span,
   counter and histogram registries. *)
let enable_obs () =
  Obs.Trace.enable ();
  Obs.Counters.enable ();
  Obs.Histogram.enable ()

let disable_obs () =
  Obs.Trace.disable ();
  Obs.Counters.disable ();
  Obs.Histogram.disable ()

(* Spans are kept in memory and written out once, at the end. *)
let write_spans ~path =
  let json =
    Obs.Trace.to_chrome_json ~counters:(Obs.Counters.dump ())
      ~histograms:(Obs.Histogram.dump ()) ()
  in
  let oc = open_out_bin path in
  output_string oc json;
  close_out oc

let span name f = Obs.Trace.with_span ("bench." ^ name) f
