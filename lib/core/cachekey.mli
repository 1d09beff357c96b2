(** Content-addressed cache keys for scheduling requests.

    The scheduling service ([lib/service]) answers a repeated request
    from its cache instead of re-running the compaction search.  That
    is only sound if the key covers {e every} input the reply bytes
    depend on; this module defines that canonical form in one place:

    - the graph: name, labels, computation times and the sorted edge
      list with delays and volumes (the exported schedule prints the
      name and labels, so they are part of the contract);
    - the machine: topology name, processor count and the sorted
      weighted link list;
    - the transport discipline (store-and-forward or wormhole);
    - every search knob: remap mode, pass budget, per-processor speeds
      and the slow-down factor.

    Two requests with equal canonical forms produce byte-identical
    schedules (the scheduler is deterministic), so a cache hit is
    indistinguishable from a cold run — the coherence argument in
    DESIGN.md, pinned by [test/test_service.ml]'s golden test.

    Keys are MD5 digests of the canonical text.  MD5 is fine here: the
    cache is a performance layer, not an integrity boundary — a forged
    collision only ever poisons the forger's own request. *)

type transport = Store_and_forward | Wormhole

val transport_name : transport -> string
(** ["store-and-forward"] / ["wormhole"], as spelled on the wire. *)

val canonical :
  ?speeds:int array ->
  ?passes:int ->
  ?slowdown:int ->
  mode:Remap.mode ->
  transport:transport ->
  Dataflow.Csdfg.t ->
  Topology.t ->
  string
(** The full canonical text of a schedule request.  [slowdown] defaults
    to 1, [passes]/[speeds] to the scheduler defaults (rendered
    distinctly from any explicit value). *)

val digest :
  ?speeds:int array ->
  ?passes:int ->
  ?slowdown:int ->
  mode:Remap.mode ->
  transport:transport ->
  Dataflow.Csdfg.t ->
  Topology.t ->
  string
(** MD5 of {!canonical}, as 32 lowercase hex characters — the cache key
    and the service's session id. *)

(** {2 Pre-rendered parts}

    The canonical text is the graph's lines, then the machine's, then
    the knobs'.  A caller that serves the same graph or machine many
    times (the service's shipped workloads and architectures) renders
    those parts once; {!digest_of_texts} over them equals {!digest}. *)

val graph_text : Dataflow.Csdfg.t -> string
(** The graph's lines of {!canonical}. *)

val topology_text : Topology.t -> string
(** The machine's lines of {!canonical}. *)

val digest_of_texts :
  ?speeds:int array ->
  ?passes:int ->
  ?slowdown:int ->
  mode:Remap.mode ->
  transport:transport ->
  graph:string ->
  topology:string ->
  unit ->
  string
(** {!digest} from {!graph_text} and {!topology_text}:
    [digest g topo = digest_of_texts ~graph:(graph_text g)
    ~topology:(topology_text topo) ()] with the same knobs. *)

val replan_canonical :
  parent:string ->
  failed_pes:int list ->
  failed_links:(int * int) list ->
  string
(** Canonical form of a replan request: the parent session key plus the
    sorted, deduplicated fault set (links normalised to [a <= b]).
    Chained replans compose — the reply's session key becomes the next
    request's [parent]. *)

val replan_digest :
  parent:string ->
  failed_pes:int list ->
  failed_links:(int * int) list ->
  string
(** MD5 of {!replan_canonical} in hex. *)
