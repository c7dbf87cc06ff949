(** Nemesis-driven consistency audits.

    An audit is one {!Driver} run of a protocol's default deployment under
    a fault {!Schedule.t} with the {!Driver.Slots} load (timeout-respawning
    session slots): the driver collects the execution history — including
    operations whose acknowledgement a fault swallowed, swept in as
    incomplete records — and checks it against the protocol's consistency
    model. Liveness is asserted separately: operations invoked after the
    schedule's final heal must complete.

    Every run is a pure function of (workload [seed], [schedule]); the
    [trace] field is a canonical serialization of the history, so two runs
    with identical inputs can be compared byte for byte. *)

type protocol = Spanner_strict | Spanner_rss | Gryff_lin | Gryff_rsc

val protocols : protocol list

val protocol_name : protocol -> string
val protocol_of_string : string -> protocol option
val model_name : protocol -> string

val protocol_sites : protocol -> int
(** Site count of the protocol's default deployment (wan3 / wan5). *)

val protocol_epsilon_us : protocol -> int

val protocol_leader_sites : protocol -> int list
(** Leader sites of the default deployment — the {!Nemesis.Leader_kill}
    victim pool (empty for the leaderless Gryff). *)

val nemesis_schedule :
  protocol -> Nemesis.preset -> duration_s:float -> seed:int -> Schedule.t
(** A nemesis schedule sized for the protocol's default deployment. *)

(** {1 Storage fault injection}

    Re-exported from {!Driver}: a driver given a [disk_faults] spec installs
    a {!Sim.Durable.Faults} control {e before} building the cluster (stores
    register at creation), ties storage damage to the schedule's [Crash]
    events, re-verifies the placement directory's log on site-0 [Recover],
    and arms the background {!Sim.Scrub} pass. Fault placement draws from
    the control's own seeded stream, so network schedules stay
    byte-identical with or without disk faults armed. *)

type disk_faults = Driver.disk_faults = {
  df_spec : Sim.Durable.Faults.spec;  (** per-crash damage probabilities *)
  df_seed : int;  (** the control's dedicated stream *)
  df_scrub_period_us : int;  (** 0 disables the background scrub *)
  df_integrity : bool;
      (** [false] builds checksum-blind stores — the broken control
          configuration the battery must catch *)
}

val default_disk_faults :
  ?spec:Sim.Durable.Faults.spec -> seed:int -> unit -> disk_faults
(** Integrity on, 250 ms scrub period, [spec] defaulting to
    {!Sim.Durable.Faults.default_spec}. *)

(** The raw collected history, exposed so callers (notably the schedule
    explorer) can re-judge a finished run with {!Rss_core.Check_online} or
    other oracles without re-executing the simulation. Spanner runs carry
    witness transactions; Gryff runs carry per-key register records. *)
type records =
  | Spanner_records of Rss_core.Witness.txn array
  | Gryff_records of Gryff.Cluster.record array

type run = {
  protocol : protocol;
  check : (unit, string) result;  (** the offline consistency verdict *)
  records : records;  (** the raw history behind [check] and [trace] *)
  stale_control : unit -> (unit, string) result option;
      (** Corrupt one read in the collected history to an older version and
          re-check. [None] if no eligible read exists; otherwise the result
          should be [Error _] — the audit's proof that the checker has
          teeth. *)
  trace : string;  (** canonical history serialization, for determinism diffs *)
  metrics : Obs.Metrics.snapshot;
      (** every other number, under the driver's counter names; read with
          {!counter}. Beyond the protocol, network, fault, failover,
          placement and durable counters of any driver run, the slots load
          adds [op.completed], [op.timed_out] (and [op.timed_out.KIND] for
          ["ro"]/["rw"] or ["read"]/["write"]), [op.post_heal_completed],
          [op.post_heal_timed_out] (ops invoked after
          {!Schedule.end_of_faults}), [op.unacked_commits_swept] and
          [op.history_records]; the ["ops"] histogram is the completed-op
          latency. *)
  ops_completed : int;  (** [op.completed] *)
  ops_timed_out : int;  (** [op.timed_out]: abandoned, session retired *)
  msgs_sent : int;  (** [net.messages] *)
  duration_us : int;  (** simulated time at which the engine drained *)
  view_changes : int;  (** [failover.view_changes], all shard groups *)
  aborted_attempts : int;  (** [rw.aborted_attempts] (Spanner only) *)
}

val counter : run -> string -> int
(** A counter from [metrics] by name; [0] when absent. *)

val of_run : protocol -> Driver.Run.t -> run
(** The audit view of a driver run of [protocol] under the slots load —
    for audits of non-default deployments (a five-site Spanner, clients
    kept off a crash victim) built with {!Driver.spanner} /
    {!Driver.gryff} directly. *)

val run :
  protocol -> ?tracer:Obs.Trace.t ->
  ?prepare:(Sim.Engine.t -> Sim.Net.t -> unit) -> schedule:Schedule.t ->
  ?disk_faults:disk_faults -> ?n_slots:int -> ?n_keys:int -> ?timeout_us:int ->
  ?conflict:float -> ?write_ratio:float -> ?unsafe_no_deps:bool ->
  ?failover:bool -> ?n_migrations:int -> duration_s:float -> seed:int ->
  unit -> run
(** Audit [protocol]'s default deployment (wan3 Retwis at θ = 0.5 over
    5,000 keys with 12 slots; wan5 YCSB over 2,000 keys with 10 slots)
    under [schedule], with [timeout_us] (default 2 s) per operation.
    [tracer] (default disabled) records spans cluster-wide plus a
    [Fault]-kind instant per injected event. [failover] arms crash
    recovery (and, for Spanner, client deadlines just under the timeout).
    [n_migrations] (Spanner only) live-migrates the Zipfian-hot eighth of
    the keyspace that many times, spread over the run, each to a
    different shard. [conflict], [write_ratio] and [unsafe_no_deps] (the
    broken control client with the RSC fence disabled) apply to Gryff
    only. [prepare] runs right after the cluster is built, before
    anything else is armed or scheduled — the schedule explorer installs
    perturbation hooks and batching there. *)

val liveness_ok : ?min_post_quiet:int -> run -> bool
(** True when at least [min_post_quiet] (default 1) operations invoked after
    the schedule's last event completed. *)

val print_report : run -> unit
