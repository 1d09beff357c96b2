let recommended_domains () = max 1 (Domain.recommended_domain_count ())

type 'b cell = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let c_tasks = Obs.Counters.counter "parutil.tasks"
let c_domains = Obs.Counters.counter "parutil.domains"

(* Wrapping every task in a span exercises Obs.Trace's per-domain
   streams: each worker domain records into its own buffer, and the
   exporter merges them after the join below. *)
let traced_task i f x =
  Obs.Counters.incr c_tasks;
  Obs.Trace.with_span "parutil.task" ~args:[ ("index", string_of_int i) ]
    (fun () -> f i x)

(* Worker domains are spawned on first use and kept: spawning one per
   call cost about a millisecond, more than a portfolio round of cheap
   compaction passes.  A posted job is one [worker] closure that pulls
   item indices until none are left; the caller runs it too, and returns
   once every helper that joined has finished.  A call that finds the
   pool in use — a nested call from inside a task, or a call from another
   domain — spawns its own domains and joins them, as every call did
   before the pool. *)
type pool = {
  lock : Mutex.t;
  posted : Condition.t;
  finished : Condition.t;
  mutable job : unit -> unit;
  mutable generation : int;  (* bumped by each post *)
  mutable wanted : int;  (* helpers still to join the current job *)
  mutable running : int;  (* helpers that have not finished it *)
  mutable size : int;  (* helper domains spawned *)
}

let pool =
  {
    lock = Mutex.create ();
    posted = Condition.create ();
    finished = Condition.create ();
    job = ignore;
    generation = 0;
    wanted = 0;
    running = 0;
    size = 0;
  }

let pool_in_use = Atomic.make false

let rec helper seen =
  Mutex.lock pool.lock;
  while pool.generation = seen do
    Condition.wait pool.posted pool.lock
  done;
  let generation = pool.generation in
  if pool.wanted > 0 then begin
    pool.wanted <- pool.wanted - 1;
    let job = pool.job in
    Mutex.unlock pool.lock;
    job ();
    Mutex.lock pool.lock;
    pool.running <- pool.running - 1;
    if pool.running = 0 then Condition.signal pool.finished
  end;
  Mutex.unlock pool.lock;
  helper generation

let run_pooled ~helpers worker =
  Mutex.protect pool.lock (fun () ->
      while pool.size < helpers do
        let seen = pool.generation in
        ignore (Domain.spawn (fun () -> helper seen));
        pool.size <- pool.size + 1
      done;
      pool.job <- worker;
      pool.wanted <- helpers;
      pool.running <- helpers;
      pool.generation <- pool.generation + 1;
      Condition.broadcast pool.posted);
  (* even if the caller's share raises, the helpers must be done with
     this job before the pool takes another *)
  Fun.protect worker ~finally:(fun () ->
      Mutex.protect pool.lock (fun () ->
          while pool.running > 0 do
            Condition.wait pool.finished pool.lock
          done;
          pool.job <- ignore))

let run_spawned ~helpers worker =
  let spawned = List.init helpers (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned

let mapi ?domains f items =
  let n = List.length items in
  let workers =
    let d = match domains with Some d -> d | None -> recommended_domains () in
    max 1 (min d n)
  in
  Obs.Trace.with_span "parutil.map"
    ~args:
      [ ("items", string_of_int n); ("domains", string_of_int workers) ]
    (fun () ->
      Obs.Counters.incr c_domains ~by:workers;
      if workers <= 1 || n <= 1 then List.mapi (fun i x -> traced_task i f x) items
      else begin
        let input = Array.of_list items in
        let output = Array.make n Pending in
        let next = Atomic.make 0 in
        let worker () =
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (output.(i) <-
                (match traced_task i f input.(i) with
                | v -> Done v
                | exception e -> Failed (e, Printexc.get_raw_backtrace ())));
              loop ()
            end
          in
          loop ()
        in
        let helpers = workers - 1 in
        if Atomic.compare_and_set pool_in_use false true then
          Fun.protect
            ~finally:(fun () -> Atomic.set pool_in_use false)
            (fun () -> run_pooled ~helpers worker)
        else run_spawned ~helpers worker;
        Array.to_list output
        |> List.map (function
             | Done v -> v
             | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
             | Pending -> assert false)
      end)

let map ?domains f items = mapi ?domains (fun _ x -> f x) items
