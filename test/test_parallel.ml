(* The domains-based parallel map must be indistinguishable from
   List.map except for wall-clock time. *)

let check_bool = Alcotest.(check bool)

let test_matches_sequential () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "same results, same order"
    (List.map (fun x -> (x * x) + 1) xs)
    (Parutil.Parallel.map (fun x -> (x * x) + 1) xs)

let test_mapi_indices () =
  let xs = [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check (list string))
    "indices line up"
    (List.mapi (fun i s -> Printf.sprintf "%d%s" i s) xs)
    (Parutil.Parallel.mapi (fun i s -> Printf.sprintf "%d%s" i s) xs)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Parutil.Parallel.map succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Parutil.Parallel.map succ [ 1 ])

let test_explicit_domain_counts () =
  let xs = List.init 37 Fun.id in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "domains=%d" domains)
        (List.map succ xs)
        (Parutil.Parallel.map ~domains succ xs))
    [ 1; 2; 3; 8; 64 ]

exception Boom of int

let test_exception_propagates () =
  let xs = List.init 20 Fun.id in
  check_bool "raises Boom" true
    (match
       Parutil.Parallel.map ~domains:4
         (fun x -> if x = 13 then raise (Boom x) else x)
         xs
     with
    | _ -> false
    | exception Boom 13 -> true
    | exception _ -> false)

(* The worker's backtrace must survive the cross-domain re-raise: the
   coordinator re-raises with [Printexc.raise_with_backtrace], so the
   frame that actually raised — this function, in this file — is still
   on the recorded trace, not just the re-raise site in parallel.ml. *)
let[@inline never] detonate x = if x = 13 then raise (Boom x) else x

let test_backtrace_preserved () =
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let bt =
    match Parutil.Parallel.map ~domains:4 detonate (List.init 20 Fun.id) with
    | _ -> ""
    | exception Boom 13 -> Printexc.get_backtrace ()
    | exception _ -> ""
  in
  Printexc.record_backtrace prev;
  check_bool "backtrace mentions the raising worker frame" true
    (let needle = "test_parallel" in
     let n = String.length needle and len = String.length bt in
     let rec scan i =
       i + n <= len && (String.sub bt i n = needle || scan (i + 1))
     in
     scan 0)

let test_recommended_positive () =
  check_bool "at least one domain" true (Parutil.Parallel.recommended_domains () >= 1)

let test_parallel_compaction_batch () =
  (* the real use: a batch of compactions gives identical lengths in
     parallel and sequentially *)
  let cells =
    [
      (Workloads.Examples.fig1b, Topology.complete 4);
      (Workloads.Dsp.diffeq, Topology.ring 4);
      (Workloads.Dsp.iir_biquad, Topology.mesh ~rows:2 ~cols:2);
      (Workloads.Kernels.volterra, Topology.hypercube 2);
    ]
  in
  let run (g, topo) =
    Cyclo.Schedule.length
      (Cyclo.Compaction.run_on ~validate:false g topo).Cyclo.Compaction.best
  in
  Alcotest.(check (list int))
    "parallel batch = sequential batch" (List.map run cells)
    (Parutil.Parallel.map ~domains:4 run cells)

(* Worker domains are kept between calls; a call made from inside a task,
   or from another domain while the pool is busy, spawns its own. *)
let test_nested_and_concurrent () =
  let inner x = Parutil.Parallel.map ~domains:3 (fun y -> x * y) [ 1; 2; 3 ] in
  let expect = List.map (fun x -> List.map (fun y -> x * y) [ 1; 2; 3 ]) in
  for _ = 1 to 20 do
    Alcotest.(check (list (list int)))
      "nested maps" (expect [ 4; 5; 6; 7 ])
      (Parutil.Parallel.map ~domains:2 inner [ 4; 5; 6; 7 ])
  done;
  let other =
    Domain.spawn (fun () ->
        List.init 20 (fun _ -> Parutil.Parallel.map ~domains:2 inner [ 8; 9 ]))
  in
  for _ = 1 to 20 do
    Alcotest.(check (list (list int)))
      "this domain" (expect [ 1; 2; 3 ])
      (Parutil.Parallel.map ~domains:2 inner [ 1; 2; 3 ])
  done;
  List.iter
    (Alcotest.(check (list (list int))) "other domain" (expect [ 8; 9 ]))
    (Domain.join other)

let () =
  Alcotest.run "parallel"
    [
      ( "parallel-map",
        [
          Alcotest.test_case "matches sequential" `Quick test_matches_sequential;
          Alcotest.test_case "mapi" `Quick test_mapi_indices;
          Alcotest.test_case "edge sizes" `Quick test_empty_and_singleton;
          Alcotest.test_case "domain counts" `Quick test_explicit_domain_counts;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "backtrace preserved" `Quick
            test_backtrace_preserved;
          Alcotest.test_case "recommended" `Quick test_recommended_positive;
          Alcotest.test_case "compaction batch" `Quick
            test_parallel_compaction_batch;
          Alcotest.test_case "nested and concurrent" `Quick
            test_nested_and_concurrent;
        ] );
    ]
