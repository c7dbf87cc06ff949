(** One driver per protocol.

    The paper's experiments (§6 Spanner-RSS on Retwis, §7 Gryff-RSC on
    YCSB) and the chaos audits all do one job: build a cluster, arm the
    environment's faults, drive a load, sweep writes whose acknowledgement
    a fault swallowed into the history, and check the history against the
    protocol's model. {!spanner} and {!gryff} each do that job once, from
    three inputs:

    - a deployment ({!spanner} / {!gryff} records): the protocol's
      configuration and workload shape, plus, for Spanner only, live
      reshards;
    - a {!load}: partly-open sessions, closed-loop clients or
      timeout-respawning slots;
    - an {!Env.t}: faults, failover, tracing, checking, batching,
      deadlines and overload protections. Every field applies to every
      deployment.

    Each returns one {!Run.t}. [Harness] names the paper's experiments as
    presets over these; [Audit.run] is the slots load under a nemesis
    schedule. A run is a pure function of its inputs and seed. *)

type check_mode = [ `Offline | `Online | `No_check ]
(** How a run verifies its history. [`Offline] (the default) checks the
    buffered history post hoc. [`Online] feeds every record into
    {!Rss_core.Check_online} as it happens (one checker per key for Gryff
    registers), so million-op histories verify in near-linear time.
    [`No_check] skips verification; the verdict is [Unknown]. Record hooks
    draw no randomness and schedule no events, so the mode never moves the
    seeded schedule. *)

type reshard_spec = {
  rs_at : float;  (** when to start, as a fraction of the run's duration *)
  rs_lo : int;  (** key range [\[rs_lo, rs_hi)] to move *)
  rs_hi : int;
  rs_dst : int;  (** destination shard *)
  rs_no_fence : bool;
      (** skip the t_m real-time barrier — the {e unsafe} mutation control
          used by safety experiments; production paths pass [false] *)
}
(** A live key-range migration ({!Spanner.Cluster.migrate}) armed partway
    through a Spanner run; statistics land in the [place.*] counters. *)

type flow_spec = {
  fl_admission : Sim.Station.limits option;
      (** bounded queues + load shedding at every server station *)
  fl_drop_expired : bool;
      (** servers drop request legs whose riding deadline has already
          passed at their projected service start — pair with
          [Env.deadline_us] or nothing rides the envelopes *)
  fl_hedge_us : int;
      (** hedge reads still unfinished after this many µs (0 = off):
          Spanner duplicates the RO read, Gryff widens a bare-quorum
          fan-out — see [fl_gryff_fanout] *)
  fl_budget : (int * int) option;
      (** fleet-wide retry token bucket as [(capacity, refill_period_us)];
          a dry bucket turns retries of shed work into fast-fails *)
  fl_gryff_fanout : Gryff.Protocol.read_fanout option;
      (** Gryff read fan-out policy ([None] keeps [Fan_all]); Spanner
          ignores it *)
}
(** The overload protections applied to the cluster before any traffic
    flows. Every field off ({!flow_default}) reproduces the unprotected run
    byte for byte. *)

val flow_default : flow_spec

type disk_faults = {
  df_spec : Sim.Durable.Faults.spec;  (** per-crash damage probabilities *)
  df_seed : int;  (** the control's dedicated stream *)
  df_scrub_period_us : int;  (** 0 disables the background scrub *)
  df_integrity : bool;
      (** [false] builds checksum-blind stores — the broken control
          configuration a battery must catch *)
}
(** Storage faults. The driver installs a {!Sim.Durable.Faults} control
    {e before} building the cluster (stores register at creation), damages
    a site's stores on every [Crash] of it in the chaos schedule,
    re-verifies the placement directory's log on site-0 [Recover], and arms
    the background {!Sim.Scrub} pass. Fault placement draws from the
    control's own stream, so network schedules stay byte-identical with or
    without disk faults armed. Gryff keeps no durable stores. *)

val default_disk_faults :
  ?spec:Sim.Durable.Faults.spec -> seed:int -> unit -> disk_faults
(** Integrity on, 250 ms scrub period, [spec] defaulting to
    {!Sim.Durable.Faults.default_spec}. *)

(** The run environment, built with {!default} and the [with_*]
    combinators:
    {[ Env.(default |> with_check `Online |> with_batching (Some policy)) ]} *)
module Env : sig
  type t = {
    chaos : Schedule.t option;
        (** faults injected into the network and TrueTime; with a schedule
            armed, every write is tracked so one whose acknowledgement a
            fault swallowed is swept into the history as incomplete *)
    disk_faults : disk_faults option;
    failover : bool;
        (** crash recovery: Spanner shard-group view changes, client
            retries and in-doubt 2PC resolution; Gryff request
            retransmission *)
    trace : Obs.Trace.t;
        (** span sink; tracing is passive and never moves the schedule *)
    check : check_mode;
    batching : Sim.Net.policy option;
        (** installed on the run's network before any traffic flows;
            [None] keeps seeded schedules byte-identical to unbatched
            runs *)
    deadline_us : int option;
        (** client deadline on every operation. [None] (the default) puts
            none, except that Spanner under [failover] falls back to 10 s
            (just under the slot timeout for slots loads) to settle ops a
            coordinator crash orphaned. An explicit value overrides that. *)
    flow : flow_spec option;
  }

  val default : t
  (** No chaos, no disk faults, no failover, tracing disabled, [`Offline]
      checking, batching off, no deadline, no flow policy. *)

  val with_chaos : Schedule.t -> t -> t
  val with_disk_faults : disk_faults -> t -> t
  val with_failover : bool -> t -> t
  val with_trace : Obs.Trace.t -> t -> t
  val with_check : check_mode -> t -> t
  val with_batching : Sim.Net.policy option -> t -> t

  val with_deadline_us : int option -> t -> t
  (** Raises [Invalid_argument] on a non-positive deadline. *)

  val with_flow : flow_spec option -> t -> t
end

module Run : sig
  (** The run's execution history, protocol-shaped. *)
  type history =
    | Spanner_txns of Rss_core.Witness.txn array
    | Gryff_ops of Gryff.Cluster.record array

  (** The consistency verdict. [Unknown] surfaces exhausted checker budgets
      (and [`No_check] runs) as a value — a budget can silence the checker
      but never make it wrong. *)
  type verdict = Rss_core.Check_online.verdict =
    | Pass
    | Fail of string
    | Unknown of string

  type t = {
    latencies : (string * Stats.Recorder.t) list;
        (** named recorders in µs (see {!load}) *)
    metrics : Obs.Metrics.snapshot;
        (** protocol, network, fault, placement, failover, durable, flow,
            batching and load counters and gauges; every run adds
            ["check.finish_s"], online-checked runs ["check.added"],
            ["check.work"], ["check.max_displacement"] *)
    check : verdict;
    records : history;
    duration_us : int;  (** simulated time at which the engine drained *)
  }

  val passed : t -> bool
  (** [check = Pass]. *)

  val latency : t -> string -> Stats.Recorder.t
  (** Recorder by name; an empty recorder when absent. *)

  val counter : t -> string -> int
  (** Metric counter by name; [0] when absent. *)

  val gauge : t -> string -> float
  (** Metric gauge by name; [nan] when absent. *)

  val gauge_opt : t -> string -> float option
  (** Like {!gauge} but [None] when the gauge is absent {e or} NaN, so
      callers render "n/a" instead of leaking [nan]. *)

  val completed : t -> int
  (** Total recorded operations across all recorders. *)

  val n_records : t -> int

  val verdict_of_result : (unit, string) result -> verdict

  val report_check : string -> verdict -> unit
  (** A loud ["  !! NAME: consistency violation in run history: …"] line
      on [Fail], a ["  ?? …"] note on [Unknown], nothing on [Pass]. *)

  val print_history : ?model:string -> verdict -> unit
  (** The one-line verdict the CLI prints: ["history: verified (MODEL)"],
      ["history: VIOLATION — …"] or ["history: verdict UNKNOWN — …"]. *)

  val print_latencies : ?header:string -> t -> unit
  val print_metrics : ?header:string -> t -> unit

  val print_summary : ?header:string -> t -> unit
  (** Latency table, metrics table and {!report_check}. *)
end

(** What drives the clients.
    - [Partly_open]: sessions arrive as a Poisson process at [rate] per
      second; after each op a session stays with probability [stay]
      (a fresh client, and t_min, per session).
    - [Closed]: [n_clients] clients, each issuing its next op as soon as
      the previous one completes.
    - [Slots]: [n_slots] session slots; an op that misses [timeout_us]
      abandons its session for good and a fresh session takes the slot.
      Every counted completion lands in one ["ops"] recorder, and the
      run's metrics gain [op.completed], [op.timed_out],
      [op.timed_out.KIND], [op.post_heal_completed],
      [op.post_heal_timed_out] (split at the chaos schedule's last event)
      and [op.history_records]. *)
type load =
  | Partly_open of { rate : float; stay : float }
  | Closed of { n_clients : int }
  | Slots of { n_slots : int; timeout_us : int }

(** How open and closed loads are measured.
    - [Tail]: the first tenth of the run is warm-up; one recorder per op
      kind (["ro"]/["rw"] or ["read"]/["write"]).
    - [Saturation]: the first fifth is warm-up and only ops invoked before
      the horizon count; one recorder (["txn"] or ["op"]) and the gauges
      ["throughput_tps"], ["p50_ms"] (and Spanner's ["msgs_per_txn"]). *)
type window = Tail | Saturation

type spanner = {
  sp_config : Spanner.Config.t;
  sp_reshard : reshard_spec list;
  sp_theta : float;  (** Retwis Zipf skew *)
  sp_keys : int;
  sp_window : window;
}

type gryff = {
  gr_config : Gryff.Config.t;
  gr_sites : int array;  (** client sites, assigned round-robin *)
  gr_conflict : float;  (** YCSB hot-key share *)
  gr_write_ratio : float;
  gr_keys : int;
  gr_unsafe_no_deps : bool;
      (** the broken control client with the RSC dependency fence
          disabled *)
  gr_window : window;
}

val spanner_deployment : Spanner.Config.t -> theta:float -> n_keys:int -> spanner
(** No reshards, [Tail] window. Clients run at the config's
    [client_sites]. *)

val gryff_deployment :
  Gryff.Config.t -> conflict:float -> write_ratio:float -> n_keys:int -> gryff
(** Clients on every replica site, safe clients, [Tail] window. *)

val gryff_witness_txn : Gryff.Cluster.record -> Rss_core.Witness.txn
(** A Gryff register record as a one-op witness transaction (carstamp as
    timestamp, reads ranked above writes) — the form the online checkers
    consume. *)

val keyed_checkers :
  (unit -> Rss_core.Check_online.t) ->
  (int -> Rss_core.Witness.txn -> unit)
  * (unit -> (int * Rss_core.Check_online.t) list)
(** [add, settled]: [add key txn] feeds [txn] to [key]'s online checker,
    made with the given function on first use; [settled ()] lists the
    checkers in key order. *)

val combine_keyed : Run.verdict -> int * Run.verdict -> Run.verdict
(** One step of folding per-key verdicts in key order: the first [Fail]
    wins, otherwise the first [Unknown]; the message names the key. *)

val spanner :
  ?prepare:(Sim.Engine.t -> Sim.Net.t -> unit) -> spanner -> load -> Env.t ->
  duration_s:float -> seed:int -> Run.t
(** Retwis over Spanner. [prepare] runs right after the cluster is built,
    before anything else is armed or scheduled — the schedule explorer
    installs perturbation hooks and batching there. *)

val gryff :
  ?prepare:(Sim.Engine.t -> Sim.Net.t -> unit) -> gryff -> load -> Env.t ->
  duration_s:float -> seed:int -> Run.t
(** YCSB reads and writes over Gryff; [prepare] as for {!spanner}. *)
