(* Per-span resource attribution and process-level memory gauges.

   This is Trace's twin for *space*: the same per-domain streams, the
   same epoch-based lazy re-registration, the same
   one-atomic-load-when-off probe discipline — but a frame captures
   [Gc.quick_stat] at open and close instead of the monotonic clock, so
   a closed span carries the words allocated, promotions and collections
   attributable to its window.  Resource spans piggyback on the
   existing [Trace.with_span] probe names via the wrapper hook Trace
   exposes, installed at module-init time below: enabling Resource
   attributes every instrumented phase without touching a single call
   site.

   [Gc.quick_stat] never walks the heap (unlike [Gc.stat]), so an
   enabled probe costs two stat reads — cheap enough for the span
   granularity used here (whole passes and runs, not inner loops).
   Minor words come from [Gc.minor_words] instead: OCaml 5's
   [quick_stat] counts them only at minor collections, so a span that
   allocated less than the minor heap read as zero.  The allocation
   counters read are per-domain in OCaml 5, which is
   exactly the attribution we want: a span records its own domain's
   allocation, and nested spans' deltas sum to at most their parent's
   because the counters are monotone within a domain. *)

type span = {
  name : string;
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;  (* growth of the top-heap high-water mark *)
  depth : int;
  domain : int;
  seq : int;
}

(* Frames are compared physically on close, like Trace's: an
   [enable]/[reset] racing with an open span drops that span instead of
   corrupting the new collection. *)
type frame = {
  f_name : string;
  f_minor : float;
  f_promoted : float;
  f_major : float;
  f_minor_cols : int;
  f_major_cols : int;
  f_top_heap : int;
  f_seq : int;
}

type stream = {
  mutable tag : int;
  mutable epoch : int;
  mutable stack : frame list;
  mutable closed : span list;  (* newest first *)
  mutable next_seq : int;
}

let enabled_flag = Atomic.make false
let epoch = Atomic.make 0
let next_tag = Atomic.make 0
let registry_lock = Mutex.create ()
let registry : stream list ref = ref []

let stream_key : stream Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tag = -1; epoch = -1; stack = []; closed = []; next_seq = 0 })

let stream () =
  let s = Domain.DLS.get stream_key in
  let e = Atomic.get epoch in
  if s.epoch <> e then begin
    s.epoch <- e;
    s.stack <- [];
    s.closed <- [];
    s.next_seq <- 0;
    s.tag <- Atomic.fetch_and_add next_tag 1;
    Mutex.protect registry_lock (fun () -> registry := s :: !registry)
  end;
  s

let enabled () = Atomic.get enabled_flag

let reset () =
  Mutex.protect registry_lock (fun () -> registry := []);
  Atomic.set next_tag 0;
  Atomic.incr epoch

let enable () =
  reset ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let s = stream () in
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    let q0 = Gc.quick_stat () in
    let frame =
      {
        f_name = name;
        f_minor = Gc.minor_words ();
        f_promoted = q0.Gc.promoted_words;
        f_major = q0.Gc.major_words;
        f_minor_cols = q0.Gc.minor_collections;
        f_major_cols = q0.Gc.major_collections;
        f_top_heap = q0.Gc.top_heap_words;
        f_seq = seq;
      }
    in
    s.stack <- frame :: s.stack;
    let close () =
      let q1 = Gc.quick_stat () and minor1 = Gc.minor_words () in
      match s.stack with
      | top :: rest when top == frame ->
          s.stack <- rest;
          let dw a b = max 0 (int_of_float (a -. b)) in
          s.closed <-
            {
              name;
              minor_words = dw minor1 frame.f_minor;
              promoted_words = dw q1.Gc.promoted_words frame.f_promoted;
              major_words = dw q1.Gc.major_words frame.f_major;
              minor_collections =
                max 0 (q1.Gc.minor_collections - frame.f_minor_cols);
              major_collections =
                max 0 (q1.Gc.major_collections - frame.f_major_cols);
              top_heap_words = max 0 (q1.Gc.top_heap_words - frame.f_top_heap);
              depth = List.length rest;
              domain = s.tag;
              seq;
            }
            :: s.closed
      | _ -> ()  (* collection was reset mid-span: drop it *)
    in
    Fun.protect ~finally:close f
  end

let spans () =
  let streams = Mutex.protect registry_lock (fun () -> !registry) in
  List.concat_map (fun s -> s.closed) streams
  |> List.sort (fun a b ->
         match compare a.domain b.domain with
         | 0 -> compare a.seq b.seq
         | c -> c)

type rollup = {
  r_count : int;
  r_minor_words : int;
  r_promoted_words : int;
  r_major_words : int;
  r_minor_collections : int;
  r_major_collections : int;
  r_top_heap_words : int;  (* max single-span high-water growth *)
}

let aggregate () =
  let table : (string, rollup ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt table sp.name with
      | Some cell ->
          let r = !cell in
          cell :=
            {
              r_count = r.r_count + 1;
              r_minor_words = r.r_minor_words + sp.minor_words;
              r_promoted_words = r.r_promoted_words + sp.promoted_words;
              r_major_words = r.r_major_words + sp.major_words;
              r_minor_collections = r.r_minor_collections + sp.minor_collections;
              r_major_collections = r.r_major_collections + sp.major_collections;
              r_top_heap_words = max r.r_top_heap_words sp.top_heap_words;
            }
      | None ->
          Hashtbl.add table sp.name
            (ref
               {
                 r_count = 1;
                 r_minor_words = sp.minor_words;
                 r_promoted_words = sp.promoted_words;
                 r_major_words = sp.major_words;
                 r_minor_collections = sp.minor_collections;
                 r_major_collections = sp.major_collections;
                 r_top_heap_words = sp.top_heap_words;
               }))
    (spans ());
  Hashtbl.fold (fun name cell acc -> (name, !cell) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Process-level sampling                                              *)
(* ------------------------------------------------------------------ *)

external page_size_stub : unit -> int = "obs_page_size"

let page_size = page_size_stub ()
let word_bytes = Sys.word_size / 8

(* /proc/self/statm column 2 is resident pages; /proc/self/status
   VmHWM is the resident high-water mark in kB.  Both reads use the
   stdlib only (this library deliberately has no unix dependency) and
   degrade gracefully off Linux: current RSS falls back to the major
   heap size — an underestimate, but a monotone, portable one — and the
   peak falls back to the highest RSS this module has ever sampled. *)

let statm_rss_bytes () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match String.split_on_char ' ' (input_line ic) with
          | _ :: resident :: _ -> (
              match int_of_string_opt resident with
              | Some pages when pages >= 0 -> Some (pages * page_size)
              | _ -> None)
          | _ | (exception End_of_file) -> None)

let status_peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  String.sub line 6 (String.length line - 6)
                  |> String.split_on_char ' '
                  |> List.find_opt (fun tok ->
                         tok <> "" && tok.[0] >= '0' && tok.[0] <= '9')
                  |> Option.map (fun kb -> int_of_string kb * 1024)
                else scan ()
          in
          try scan () with _ -> None)

let peak_seen = Atomic.make 0

type process_sample = {
  rss_bytes : int;
  peak_rss_bytes : int;
  heap_words : int;
  p_top_heap_words : int;
  p_minor_words : int;
  p_promoted_words : int;
  p_major_words : int;
  p_minor_collections : int;
  p_major_collections : int;
}

let sample_process () =
  let q = Gc.quick_stat () in
  let rss =
    match statm_rss_bytes () with
    | Some b -> b
    | None -> q.Gc.heap_words * word_bytes
  in
  (* keep the portable peak fallback fresh even when /proc is there *)
  let rec raise_peak () =
    let seen = Atomic.get peak_seen in
    if rss > seen && not (Atomic.compare_and_set peak_seen seen rss) then
      raise_peak ()
  in
  raise_peak ();
  let peak =
    match status_peak_rss_bytes () with
    | Some b -> max b rss
    | None -> Atomic.get peak_seen
  in
  {
    rss_bytes = rss;
    peak_rss_bytes = peak;
    heap_words = q.Gc.heap_words;
    p_top_heap_words = q.Gc.top_heap_words;
    p_minor_words = int_of_float q.Gc.minor_words;
    p_promoted_words = int_of_float q.Gc.promoted_words;
    p_major_words = int_of_float q.Gc.major_words;
    p_minor_collections = q.Gc.minor_collections;
    p_major_collections = q.Gc.major_collections;
  }

(* Gauge handles live in the shared Counters registry so the existing
   read paths — Exposition.render, --metrics, ccsched top — pick them
   up without new plumbing.  The gc.* totals are Prometheus counters
   (cumulative, monotone) even though they are written with [set]: kind
   describes scrape semantics, not the update verb. *)

let g_rss = Counters.gauge "process.resident_memory_bytes"
let g_peak_rss = Counters.gauge "process.peak_resident_memory_bytes"
let g_heap_words = Counters.gauge "gc.heap_words"
let g_top_heap_words = Counters.gauge "gc.top_heap_words"
let c_minor_words = Counters.counter "gc.minor_words"
let c_promoted_words = Counters.counter "gc.promoted_words"
let c_major_words = Counters.counter "gc.major_words"
let c_minor_cols = Counters.counter "gc.minor_collections"
let c_major_cols = Counters.counter "gc.major_collections"

let refresh_process_gauges () =
  if Counters.enabled () then begin
    let s = sample_process () in
    Counters.set g_rss s.rss_bytes;
    Counters.set g_peak_rss s.peak_rss_bytes;
    Counters.set g_heap_words s.heap_words;
    Counters.set g_top_heap_words s.p_top_heap_words;
    Counters.set c_minor_words s.p_minor_words;
    Counters.set c_promoted_words s.p_promoted_words;
    Counters.set c_major_words s.p_major_words;
    Counters.set c_minor_cols s.p_minor_collections;
    Counters.set c_major_cols s.p_major_collections
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let rollup_json () =
  let b = Buffer.create 1024 in
  let field k v =
    Buffer.add_char b ',';
    Json.Writer.add_field_int b k v
  in
  Buffer.add_string b "{\"spans\": [";
  List.iteri
    (fun i (name, r) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    {";
      Json.Writer.add_field_str b "span" name;
      field "count" r.r_count;
      field "minor_words" r.r_minor_words;
      field "promoted_words" r.r_promoted_words;
      field "major_words" r.r_major_words;
      field "minor_collections" r.r_minor_collections;
      field "major_collections" r.r_major_collections;
      field "top_heap_words" r.r_top_heap_words;
      Buffer.add_char b '}')
    (aggregate ());
  Buffer.add_string b "\n  ],\n  \"process\": {";
  let s = sample_process () in
  Json.Writer.add_field_int b "rss_bytes" s.rss_bytes;
  field "peak_rss_bytes" s.peak_rss_bytes;
  field "heap_words" s.heap_words;
  field "top_heap_words" s.p_top_heap_words;
  field "minor_words" s.p_minor_words;
  field "promoted_words" s.p_promoted_words;
  field "major_words" s.p_major_words;
  field "minor_collections" s.p_minor_collections;
  field "major_collections" s.p_major_collections;
  Buffer.add_string b "}}";
  Buffer.contents b

let pp_summary ppf () =
  let rows = aggregate () in
  if rows = [] then Format.fprintf ppf "no resource spans recorded@."
  else begin
    Format.fprintf ppf "%-28s %8s %14s %12s %8s %8s@." "span" "count"
      "minor words" "major words" "min gcs" "maj gcs";
    List.iter
      (fun (name, r) ->
        Format.fprintf ppf "%-28s %8d %14d %12d %8d %8d@." name r.r_count
          r.r_minor_words r.r_major_words r.r_minor_collections
          r.r_major_collections)
      rows
  end

(* Layer resource attribution onto every Trace.with_span call site. *)
let () = Trace.set_resource_wrapper { Trace.wrap = with_span }
