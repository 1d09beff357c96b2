(* The benchmark program: runs one workload for a fixed time from a
   seed and prints one JSON result line.  Normally started by
   perfbench/run.py, which builds this program and the ccsched daemon
   first:

     pb.exe --workload compact-scale --seed 1 --seconds 25 --trace 0 \
       --ccsched .bench_build/default/bin/ccsched.exe --run-dir .bench_run

   [--trace 0] reports the end-to-end metrics of an untraced run;
   [--trace 1] runs with the repository's spans, counters and
   histograms on and reports the per-layer metrics instead.  Every
   workload reports every metric of its kind: a traced run first probes
   the layers of the other workloads briefly, then traces its own for
   the full time. *)

let workloads = [ "compact-scale"; "serve-hot"; "simulate" ]

(* How long a traced run spends on each other workload's layers. *)
let probe_seconds = 3.

(* The open-loop mixed service load (paced hits contending with inline
   misses and replans on one daemon) is not a workload: on a shared
   2-vCPU VM its miss latency varied by 1.0-1.5x against the same misses
   computed in process, so no end-to-end bound held.  Every traced run
   probes its layers (Degrade, queue wait, the miss path) for this long:
   ~100 misses, ten of them beyond the p90 it reports. *)
let mixed_seconds = 17.

let traced ctx ~quick ~seed ~seconds = function
  | "compact-scale" -> Compact_scale.traced ~quick ~seed ~seconds ()
  | "serve-hot" -> Serve.hot_traced ~quick ctx ~seed ~seconds
  | "simulate" -> Simulate.traced ~quick ~seed ~seconds ()
  | w -> failwith ("unknown workload " ^ w)

(* The own workload runs last: enabling the span registry drops what the
   probes recorded, so the span file holds the own workload's spans. *)
let traced_all ctx ~workload ~seed ~seconds =
  if not (List.mem workload workloads) then
    failwith ("unknown workload " ^ workload);
  let probes =
    List.concat_map
      (traced ctx ~quick:true ~seed ~seconds:probe_seconds)
      (List.filter (( <> ) workload) workloads)
    @ Serve.mixed_traced ctx ~seed ~seconds:mixed_seconds
  in
  let own = traced ctx ~quick:false ~seed ~seconds workload in
  (* the first value of each metric is kept, the own workload's first *)
  List.rev
    (List.fold_left
       (fun kept m ->
         if List.exists (fun k -> k.Util.name = m.Util.name) kept then kept
         else m :: kept)
       [] (own @ probes))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and ccsched = ref "" and run_dir = ref ".bench_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run");
      ("--ccsched", Arg.Set_string ccsched, "PATH daemon executable");
      ("--run-dir", Arg.Set_string run_dir, "DIR sockets, logs and spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let ctx = { Serve.ccsched = !ccsched; run_dir = !run_dir } in
  let metrics =
    match (!workload, traced) with
    | "compact-scale", false -> Compact_scale.measure ~seed ~seconds
    | "serve-hot", false -> Serve.hot ctx ~seed ~seconds
    | "simulate", false -> Simulate.measure ~seed ~seconds
    | workload, true -> traced_all ctx ~workload ~seed ~seconds
    | w, _ -> failwith ("unknown workload " ^ w)
  in
  let metrics =
    if traced then begin
      Util.write_spans
        ~path:
          (Filename.concat !run_dir
             (Printf.sprintf "spans-%s-%d.json" !workload seed));
      metrics @ [ Util.metric "error_rate" "ratio" (Util.error_rate ()) ]
    end
    else metrics
  in
  Util.emit metrics
