(* serve-hot and the mixed-load probe: the ccsched daemon runs as a
   child process and this process drives it over its Unix socket from
   one thread and two connections, so the daemon's GC and CPU are its
   own.

   Every reply is checked: each must be ok; a hit must equal its miss
   reply byte for byte apart from "cached":true; each miss and replan
   schedule is recomputed in process after the timed phase, compared
   byte for byte and run through the Validator; and a final metrics
   scrape must show no shed requests. *)

open Cyclo
module U = Util
module P = Service.Protocol

type ctx = { ccsched : string; run_dir : string }

(* ---- the daemon --------------------------------------------------- *)

type daemon = { pid : int; sock : string; log : string }

let live = ref []

let reap d =
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun d' -> d'.pid <> d.pid) !live

(* Whatever happens to this process, no daemon outlives it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap d)
        !live)

let spawned = ref 0

let spawn ctx =
  incr spawned;
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) !spawned in
  let sock = Filename.concat ctx.run_dir ("d" ^ tag ^ ".sock") in
  let log = Filename.concat ctx.run_dir ("daemon-" ^ tag ^ ".log") in
  let log_fd =
    Unix.openfile log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process ctx.ccsched
      [| ctx.ccsched; "serve"; "--socket"; sock; "--cache"; "4096" |]
      stdin_r log_fd log_fd
  in
  List.iter Unix.close [ stdin_r; stdin_w; log_fd ];
  let d = { pid; sock; log } in
  live := d :: !live;
  d

(* ---- connections --------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect d =
  let deadline = U.now_ns () + 30_000_000_000 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when U.now_ns () < deadline ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun d' -> d'.pid <> d.pid) !live;
            failwith "ccsched serve exited during start-up");
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let send c line =
  let b = Bytes.unsafe_of_string (line ^ "\n") in
  let len = Bytes.length b in
  let rec go off = if off < len then go (off + Unix.write c.fd b off (len - off)) in
  go 0

(* Read what is available; return the complete lines, in order. *)
let read_lines c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "ccsched serve closed the connection";
  Buffer.add_subbytes c.buf c.chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (last + 1) (String.length s - last - 1);
      String.split_on_char '\n' (String.sub s 0 last)

let rec select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds timeout

(* One request, blocking for its reply. *)
let rpc c line =
  send c line;
  let rec wait () =
    match read_lines c with
    | [] -> wait ()
    | [ reply ] -> reply
    | _ -> failwith "ccsched serve sent an unexpected reply"
  in
  wait ()

(* A daemon's log is kept only when it did not shut down cleanly. *)
let shutdown d c =
  ignore (rpc c (P.request_to_json ~id:0 P.Shutdown));
  Unix.close c.fd;
  reap d;
  Sys.remove d.log

(* ---- inputs ------------------------------------------------------- *)

let hot_workloads = [ "fig7"; "elliptic"; "lattice"; "lms4"; "diffeq" ]
let hot_archs = [ "mesh:2x4"; "mesh:4x4"; "linear:8"; "hypercube:3" ]

let hot_set =
  Array.of_list
    (List.concat_map
       (fun w -> List.map (fun a -> (w, a)) hot_archs)
       hot_workloads)

let n_hot = Array.length hot_set

let schedule_request graph arch =
  P.Schedule { graph; arch; knobs = P.default_knobs }

(* Request [k] of the hot set always carries id [k], so a hit's expected
   bytes are fixed. *)
let hot_line ?(trace = false) k =
  let w, a = hot_set.(k) in
  P.request_to_json ~trace ~id:k (schedule_request (P.Workload w) a)

(* Replans kill one processor; every miss architecture stays connected
   when any single processor fails.  All have eight processors: a
   16-processor machine doubles a miss's cost and with it the spread of
   the latency tails. *)
let miss_archs = [| "mesh:2x4"; "hypercube:3"; "ring:8" |]

type miss = {
  dfg : Dataflow.Csdfg.t;
  arch : string;
  line : string;
  fail_pe : int option;  (** 1-based; [Some] on every 4th miss *)
}

(* 40-node graphs with a sparse forward fill (about 125 edges): a miss
   costs 30-80 ms.  The default fill of 0.25 gives about 240 edges and
   misses of 20-190 ms, whose tail no run of 25 s pins down. *)
let miss_params =
  {
    Workloads.Random_gen.default with
    nodes = 40;
    feedback_edges = 8;
    extra_edge_prob = 0.1;
  }

let make_misses ~seed n =
  let rng = Random.State.make [| seed; 0x6d697373 |] in
  Array.init n (fun j ->
      let g =
        Workloads.Random_gen.generate_connected ~params:miss_params
          ~seed:(Random.State.bits rng) ()
      in
      let text = Dataflow.Io.to_string g in
      let arch = miss_archs.(Random.State.int rng (Array.length miss_archs)) in
      let np =
        match Topology.of_spec arch with
        | Ok t -> Topology.n_processors t
        | Error e -> failwith e
      in
      let fail_pe = Random.State.int rng np + 1 in
      {
        dfg = Dataflow.Io.of_string_exn text;
        arch;
        line =
          P.request_to_json ~id:(1000 + j)
            (schedule_request (P.Inline text) arch);
        fail_pe = (if j mod 4 = 3 then Some fail_pe else None);
      })

(* ---- reply checks ------------------------------------------------- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let replace_first s ~sub ~by =
  match find_sub s sub with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ by
      ^ String.sub s (i + String.length sub)
          (String.length s - i - String.length sub)

(* The raw schedule object embedded as a reply's last field. *)
let schedule_bytes line =
  let key = {|"schedule":|} in
  match find_sub line key with
  | None -> ""
  | Some i ->
      let from = i + String.length key in
      String.sub line from (String.length line - from - 1)

let topology arch =
  match Topology.of_spec arch with Ok t -> t | Error e -> failwith e

(* The daemon's answer recomputed here: same bytes, legal, same key.
   Returns the schedule, the machine and the schedule's length over its
   start-up length. *)
let verify_schedule ~what ~dfg ~arch ~line =
  let topo = topology arch in
  let r = Compaction.run dfg (Comm.of_topology topo) in
  let best = r.Compaction.best in
  let key =
    Cachekey.digest ~slowdown:1 ~mode:Remap.With_relaxation
      ~transport:Cachekey.Store_and_forward dfg topo
  in
  let ok =
    match P.parse_reply line with
    | Ok (P.Scheduled { session; cached = false; length; _ }) ->
        session = key
        && length = Schedule.length best
        && Validator.check best = Ok ()
        && schedule_bytes line = Export.to_json best
    | _ -> false
  in
  U.check ok (what ^ ": miss reply differs from the in-process schedule");
  ( best,
    topo,
    float (Schedule.length best) /. float (Schedule.length r.Compaction.startup) )

let verify_replan ~what ~best ~topo ~fail_pe ~line =
  let failed_pes = [ fail_pe - 1 ] in
  let plan, ns =
    U.timed (fun () -> Degrade.replan best topo ~failed_pes ~failed_links:[])
  in
  let ok =
    match (plan, P.parse_reply line) with
    | Ok plan, Ok (P.Replanned { length; _ }) ->
        let s = plan.Degrade.schedule in
        length = Schedule.length s
        && Validator.check s = Ok ()
        && Validator.check_topology s plan.Degrade.topology = Ok ()
        && schedule_bytes line = Export.to_json s
    | _ -> false
  in
  U.check ok (what ^ ": replan reply differs from the in-process plan");
  float ns

let expected_hit warm = replace_first warm ~sub:{|"cached":false|} ~by:{|"cached":true|}

(* A traced hit is its untraced bytes with a "trace" field spliced in
   before the closing brace. *)
let traced_hit_ok ~expected line =
  let stem = String.sub expected 0 (String.length expected - 1) in
  String.starts_with ~prefix:(stem ^ {|,"trace":[|}) line
  && String.ends_with ~suffix:"]}" line

(* ---- set-up ------------------------------------------------------- *)

type server = { d : daemon; c : conn; warm : string array }

(* Start a daemon and warm the hot set: its twenty schedule requests,
   all misses, one at a time (a pipelined burst would be spread over the
   daemon's domains, and so time the other tenants of the host). *)
let start ctx =
  let d = spawn ctx in
  let c = connect d in
  { d; c; warm = Array.init n_hot (fun k -> rpc c (hot_line k)) }

(* [times] set-ups; the last one is kept.  Returns it and every
   set-up time. *)
let setup ?(times = 3) ctx =
  let rec go k times =
    let srv, t = U.timed_s (fun () -> start ctx) in
    if k = 1 then (srv, t :: times)
    else begin
      shutdown srv.d srv.c;
      go (k - 1) (t :: times)
    end
  in
  go times []

(* Two more set-ups after the timed phase, each shut down at once: the
   host's speed drifts over a run, and the reported median should span
   it as the timed metrics do. *)
let setup_s ctx before =
  let after =
    List.init 2 (fun _ ->
        let srv, t = U.timed_s (fun () -> start ctx) in
        shutdown srv.d srv.c;
        t)
  in
  U.median (Array.of_list (before @ after))

(* The hot set's schedules and their length ratios. *)
let verify_warm srv =
  Array.mapi
    (fun k line ->
      let w, arch = hot_set.(k) in
      let dfg = Option.get (Workloads.Suite.find w) in
      let best, _, ratio =
        verify_schedule ~what:(Printf.sprintf "warm %s/%s" w arch) ~dfg ~arch
          ~line
      in
      (best, ratio))
    srv.warm

(* ---- end of run ----------------------------------------------------- *)

let scrape c =
  match P.parse_reply (rpc c (P.request_to_json ~id:0 P.Metrics)) with
  | Ok (P.Metrics_reply { body; _ }) -> (
      match Obs.Exposition.parse body with
      | Ok fams -> fams
      | Error e -> failwith ("metrics scrape: " ^ e))
  | _ -> failwith "metrics scrape failed"

(* Quantile of a scraped histogram, interpolated inside its log2 bucket. *)
let histogram_quantile fams name q =
  match Obs.Exposition.find fams name with
  | None -> nan
  | Some fam ->
      let buckets =
        List.filter_map
          (fun s ->
            match s.Obs.Exposition.labels with
            | [ ("le", le) ] when s.Obs.Exposition.sample_name = name ^ "_bucket"
              ->
                Some (float_of_string le, s.Obs.Exposition.value)
            | _ -> None)
          fam.Obs.Exposition.fam_samples
      in
      let total = snd (List.nth buckets (List.length buckets - 1)) in
      let rank = q *. total in
      let rec go lo_bound lo_count = function
        | [] -> nan
        | (le, cum) :: rest ->
            if cum >= rank && cum > lo_count then
              let hi = if Float.is_finite le then le else lo_bound in
              lo_bound
              +. ((hi -. lo_bound) *. (rank -. lo_count) /. (cum -. lo_count))
            else go (if Float.is_finite le then le else lo_bound) cum rest
      in
      go 0. 0. buckets

let shed_requests fams =
  Option.value ~default:nan
    (Obs.Exposition.value fams (Obs.Exposition.metric_name "service.shed_requests"))

let health c =
  match P.parse_reply (rpc c (P.request_to_json ~id:0 P.Health)) with
  | Ok (P.Health_reply { health; _ }) -> health
  | _ -> failwith "health request failed"

let hit_ratio c =
  match P.parse_reply (rpc c (P.request_to_json ~id:0 P.Stats)) with
  | Ok (P.Stats_reply { stats; _ }) ->
      float stats.P.hits /. float (stats.P.hits + stats.P.misses)
  | _ -> failwith "stats request failed"

(* Scrape, read health and stats, shut the daemon down; returns the
   scrape, the daemon's peak RSS in MB and its cache hit ratio. *)
let finish srv =
  let fams = scrape srv.c in
  U.check (shed_requests fams = 0.) "daemon shed requests";
  let h = health srv.c in
  let ratio = hit_ratio srv.c in
  shutdown srv.d srv.c;
  (fams, float h.P.peak_rss_bytes /. 1048576., ratio)

(* ---- serve-hot: closed loop ------------------------------------------ *)

type hot_result = {
  lat : float array;  (** untraced hit latencies, ns *)
  traced_lat : float array;
  elapsed_s : float;
}

(* Two connections, one request in flight on each; every [trace_every]th
   request (0 = none) asks for a span breakdown. *)
let closed_loop srv ~rng ~seconds ~trace_every =
  let conns = [| srv.c; connect srv.d |] in
  let expected = Array.map expected_hit srv.warm in
  let lines = Array.init n_hot (fun k -> hot_line k) in
  let tlines = Array.init n_hot (fun k -> hot_line ~trace:true k) in
  let lat = U.Samples.create () and tlat = U.Samples.create () in
  let inflight = Array.make 2 (0, 0, false) in
  let sent = ref 0 in
  let t0 = U.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let issue i =
    let k = Random.State.int rng n_hot in
    incr sent;
    let tr = trace_every > 0 && !sent mod trace_every = 0 in
    inflight.(i) <- (k, U.now_ns (), tr);
    send conns.(i) (if tr then tlines.(k) else lines.(k))
  in
  let active = Array.make 2 true in
  Array.iteri (fun i _ -> issue i) conns;
  let t_last = ref t0 in
  while Array.exists Fun.id active do
    let fds =
      List.filter_map
        (fun i -> if active.(i) then Some conns.(i).fd else None)
        [ 0; 1 ]
    in
    List.iter
      (fun fd ->
        let i = if fd = conns.(0).fd then 0 else 1 in
        List.iter
          (fun line ->
            let now = U.now_ns () in
            let k, ts, tr = inflight.(i) in
            let ns = float (now - ts) in
            if tr then begin
              U.check
                (traced_hit_ok ~expected:expected.(k) line)
                "serve-hot: traced hit reply";
              U.Samples.add tlat ns
            end
            else begin
              U.check (String.equal line expected.(k))
                "serve-hot: hit reply differs from its miss reply";
              U.Samples.add lat ns
            end;
            t_last := now;
            if now < deadline then issue i else active.(i) <- false)
          (read_lines conns.(i)))
      (select_read fds 5.0)
  done;
  Unix.close conns.(1).fd;
  {
    lat = U.Samples.to_array lat;
    traced_lat = U.Samples.to_array tlat;
    elapsed_s = float (!t_last - t0) /. 1e9;
  }

let us ns = ns /. 1e3
let ms ns = ns /. 1e6

let hot ctx ~seed ~seconds =
  let srv, setups = setup ctx in
  let warm = verify_warm srv in
  let rng = Random.State.make [| seed; 0x686f74 |] in
  let r = closed_loop srv ~rng ~seconds ~trace_every:0 in
  let _, peak_mb, _ = finish srv in
  [
    U.metric "setup_s" "s" (setup_s ctx setups);
    U.metric "latency_ms" "ms" (ms (U.median r.lat));
    U.metric "len_ratio" "ratio" (U.geomean (Array.map snd warm));
    U.metric "peak_rss_mb" "MB" peak_mb;
  ]

(* In-process timings of the layers a hit crosses. *)
let service_layers ~seed bests =
  let misses = make_misses ~seed 8 in
  let parse_ns, bytes =
    Array.fold_left
      (fun (ns, b) m ->
        ( ns +. U.per_call ~reps:9 (fun () -> ignore (P.parse_request m.line)),
          b + String.length m.line ))
      (0., 0) misses
  in
  let digest_ns =
    U.mean
      (Array.map
         (fun (w, a) ->
           let dfg = Option.get (Workloads.Suite.find w) and topo = topology a in
           U.per_call ~reps:9 (fun () ->
               ignore
                 (Cachekey.digest ~slowdown:1 ~mode:Remap.With_relaxation
                    ~transport:Cachekey.Store_and_forward dfg topo)))
         hot_set)
  in
  let engine = Service.Engine.create () in
  let lines = Array.init n_hot (fun k -> hot_line k) in
  Array.iter (fun l -> ignore (Service.Engine.handle_line engine l)) lines;
  let hit_ns =
    U.median
      (Array.map
         (fun l -> U.per_call ~reps:9 (fun () -> ignore (Service.Engine.handle_line engine l)))
         lines)
  in
  let export_ns =
    U.mean (Array.map (fun s -> U.per_call ~reps:9 (fun () -> ignore (Export.to_json s))) bests)
  in
  (parse_ns /. (float bytes /. 1024.), digest_ns, hit_ns, export_ns)

(* [quick] sets the daemon up once instead of three times. *)
let hot_traced ?(quick = false) ctx ~seed ~seconds =
  U.enable_obs ();
  let times = if quick then 1 else 3 in
  let srv, _ = U.span "setup" (fun () -> setup ~times ctx) in
  let bests = U.span "verify" (fun () -> Array.map fst (verify_warm srv)) in
  let parse_kb, digest_ns, hit_ns, export_ns =
    U.span "layers" (fun () -> service_layers ~seed bests)
  in
  let rng = Random.State.make [| seed; 0x686f74 |] in
  let r =
    U.span "closed_loop" (fun () -> closed_loop srv ~rng ~seconds ~trace_every:8)
  in
  let _, _, ratio = finish srv in
  let p50 = U.median r.lat in
  [
    U.metric "protocol.parse_ns_per_kb" "ns/KB" parse_kb;
    U.metric "cachekey.digest_ns" "ns" digest_ns;
    U.metric "engine.hit_ns" "ns" hit_ns;
    U.metric "export.to_json_ns" "ns" export_ns;
    U.metric "server.overhead_us" "us" (us (p50 -. hit_ns));
    U.metric "serve.hit_p99_us" "us" (us (U.quantile r.lat 0.99));
    U.metric "engine.hit_ratio" "ratio" ratio;
    U.metric "serve.rps" "1/s"
      (float (Array.length r.lat + Array.length r.traced_lat) /. r.elapsed_s);
    U.metric "obs.trace_overhead" "ratio" (U.median r.traced_lat /. p50);
  ]

(* ---- mixed load: open loop (a traced probe, not a workload) ---------- *)

(* About 6 misses/s of ~48 ms keep the daemon ~30% busy on misses with
   no growing backlog. *)
let hit_rate = 200.
let miss_rate = 6.

type pending =
  | Hit of int * int  (** hot key, due time *)
  | Traced_hit of int * int
  | Miss of int * int  (** miss index, due time *)
  | Replan of int * int  (** miss index, due time *)

type mixed_result = {
  hits : float array;
  traced_hits : float array;
  miss_lat : float array;
  replan_lat : float array;
  late : float array;  (** send time minus due time, ns *)
  miss_replies : (int * string) list;
  replan_replies : (int * string) list;
}

(* A replan is due this long after its miss's reply: long enough for the
   daemon to answer the hits that queued behind the miss, so the replan
   is timed against a loaded daemon rather than against that backlog,
   which [serve.mixed_hit_p99_us] measures. *)
let replan_delay_ns = 25_000_000

(* Hits at [hit_rate] on one connection, misses at [miss_rate] on the
   other, each timed from when it was due; every 4th miss is followed by
   a replan of its session, due [replan_delay_ns] after its reply. *)
let open_loop srv ~rng ~misses ~seconds ~trace_every =
  let hc = srv.c and mc = connect srv.d in
  let expected = Array.map expected_hit srv.warm in
  let hits = U.Samples.create () and thits = U.Samples.create () in
  let mlat = U.Samples.create () and rlat = U.Samples.create () in
  let late = U.Samples.create () in
  let mreplies = ref [] and rreplies = ref [] in
  let hq = Queue.create () and mq = Queue.create () in
  let t0 = U.now_ns () + 1_000_000 in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let hit_gap = 1e9 /. hit_rate and miss_gap = 1e9 /. miss_rate in
  let n_hits = ref 0 and n_misses = ref 0 in
  let due_hit () = t0 + int_of_float (float !n_hits *. hit_gap) in
  let due_miss () = t0 + int_of_float (float !n_misses *. miss_gap) in
  (* replans waiting for their due time: (due, miss index, request) *)
  let replans = Queue.create () in
  let send_due now =
    while
      (not (Queue.is_empty replans))
      && (let due, _, _ = Queue.peek replans in due <= now)
    do
      let due, j, line = Queue.pop replans in
      U.Samples.add late (float (now - due));
      send mc line;
      Queue.add (Replan (j, due)) mq
    done;
    if now < t_end then begin
      while due_hit () <= now && due_hit () < t_end do
        let due = due_hit () in
        let k = Random.State.int rng n_hot in
        incr n_hits;
        let tr = trace_every > 0 && !n_hits mod trace_every = 0 in
        U.Samples.add late (float (now - due));
        send hc (hot_line ~trace:tr k);
        Queue.add (if tr then Traced_hit (k, due) else Hit (k, due)) hq
      done;
      while due_miss () <= now && due_miss () < t_end && !n_misses < Array.length misses do
        let due = due_miss () in
        let j = !n_misses in
        incr n_misses;
        U.Samples.add late (float (now - due));
        send mc misses.(j).line;
        Queue.add (Miss (j, due)) mq
      done
    end
  in
  let on_reply now line = function
    | Hit (k, due) ->
        U.check (String.equal line expected.(k))
          "mixed: hit reply differs from its miss reply";
        U.Samples.add hits (float (now - due))
    | Traced_hit (k, due) ->
        U.check (traced_hit_ok ~expected:expected.(k) line)
          "mixed: traced hit reply";
        U.Samples.add thits (float (now - due))
    | Miss (j, due) -> (
        U.Samples.add mlat (float (now - due));
        mreplies := (j, line) :: !mreplies;
        match (misses.(j).fail_pe, P.parse_reply line) with
        | Some pe, Ok (P.Scheduled { session; _ }) ->
            Queue.add
              ( now + replan_delay_ns,
                j,
                P.request_to_json ~id:(2000 + j)
                  (P.Replan
                     {
                       session;
                       fail_pes = [ pe ];
                       fail_links = [];
                       deadline_ms = None;
                     }) )
              replans
        | _ -> ())
    | Replan (j, due) ->
        U.Samples.add rlat (float (now - due));
        rreplies := (j, line) :: !rreplies
  in
  let drain_deadline = t_end + 60_000_000_000 in
  let rec loop () =
    let now = U.now_ns () in
    send_due now;
    let busy =
      not (Queue.is_empty hq && Queue.is_empty mq && Queue.is_empty replans)
    in
    if (now < t_end || busy) && now < drain_deadline then begin
      let next =
        if now < t_end then min (min (due_hit ()) (due_miss ())) t_end
        else drain_deadline
      in
      let next =
        match Queue.peek_opt replans with
        | Some (due, _, _) -> min next due
        | None -> next
      in
      let timeout = Float.max 0. (float (next - U.now_ns ()) /. 1e9) in
      List.iter
        (fun fd ->
          let c, q = if fd = hc.fd then (hc, hq) else (mc, mq) in
          List.iter
            (fun line -> on_reply (U.now_ns ()) line (Queue.pop q))
            (read_lines c))
        (select_read [ hc.fd; mc.fd ] timeout);
      loop ()
    end
  in
  loop ();
  U.check (Queue.is_empty hq && Queue.is_empty mq) "mixed: replies missing";
  Unix.close mc.fd;
  {
    hits = U.Samples.to_array hits;
    traced_hits = U.Samples.to_array thits;
    miss_lat = U.Samples.to_array mlat;
    replan_lat = U.Samples.to_array rlat;
    late = U.Samples.to_array late;
    miss_replies = !mreplies;
    replan_replies = !rreplies;
  }

(* The misses and replans recomputed in process, untimed; returns the
   in-process replan times. *)
let verify_mixed misses r =
  let bests =
    List.map
      (fun (j, line) ->
        let m = misses.(j) in
        (j, verify_schedule ~what:(Printf.sprintf "miss %d" j) ~dfg:m.dfg
              ~arch:m.arch ~line))
      r.miss_replies
  in
  List.map
    (fun (j, line) ->
      let best, topo, _ = List.assoc j bests in
      verify_replan ~what:(Printf.sprintf "replan %d" j) ~best ~topo
        ~fail_pe:(Option.get misses.(j).fail_pe) ~line)
    r.replan_replies


(* The mixed load is traced only, as a probe of the layers it alone
   reaches (see pb.ml). *)
let mixed_traced ctx ~seed ~seconds =
  U.enable_obs ();
  let srv, misses =
    U.span "setup" (fun () ->
        let n = int_of_float (Float.ceil (seconds *. miss_rate)) + 1 in
        let misses = make_misses ~seed n in
        (fst (setup ~times:1 ctx), misses))
  in
  ignore (U.span "verify" (fun () -> verify_warm srv));
  let before = scrape srv.c in
  let rng = Random.State.make [| seed; 0x6d6978 |] in
  let r =
    U.span "open_loop" (fun () ->
        open_loop srv ~rng ~misses ~seconds ~trace_every:8)
  in
  let after, _, ratio = finish srv in
  let replan_ns = U.span "verify" (fun () -> verify_mixed misses r) in
  let waits = Obs.Exposition.delta ~prev:before after in
  [
    U.metric "server.queue_wait_p99_us" "us"
      (us
         (histogram_quantile waits
            (Obs.Exposition.metric_name "service.queue_wait")
            0.99));
    U.metric "degrade.replan_ms" "ms" (ms (U.median (Array.of_list replan_ns)));
    (* The hits that waited behind a miss: their tail grows about with
       the square of the miss time, so it doubles every drift of the
       host's speed and carries no bound. *)
    U.metric "serve.mixed_hit_p50_us" "us" (us (U.median r.hits));
    U.metric "serve.mixed_hit_p99_us" "us" (us (U.quantile r.hits 0.99));
    U.metric "serve.replan_p50_ms" "ms" (ms (U.median r.replan_lat));
    (* ~100 misses in a probe: p90 is the highest percentile with ten
       samples beyond it; p99 would rest on one. *)
    U.metric "serve.miss_p90_ms" "ms" (ms (U.quantile r.miss_lat 0.90));
    U.metric "serve.gen_late_ms" "ms" (ms (U.quantile r.late 0.99));
    U.metric "engine.hit_ratio" "ratio" ratio;
    U.metric "obs.trace_overhead" "ratio"
      (U.median r.traced_hits /. U.median r.hits);
  ]
