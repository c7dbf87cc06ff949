(** The paper's experiments, as presets over the one driver per protocol
    ({!Chaos.Driver.spanner} / {!Chaos.Driver.gryff}). Each preset picks a
    deployment and a load — partly-open sessions or closed-loop clients;
    the third load, timeout-respawning slots, is the chaos audits' — and
    runs it under the caller's {!Env.t};
    every preset returns one {!Run.t}: latency recorders, a
    metrics-registry snapshot, the run's history and the verdict of
    checking it (a bench that produced an inconsistent run would be
    measuring a broken system).

    Every {!Env.t} field applies to every preset: a chaos schedule is
    injected into the run's network and TrueTime with in-flight writes
    tracked and swept into the history when a fault swallows their
    acknowledgement; disk faults, failover, batching, deadlines and flow
    protections arm the cluster before traffic flows; tracing is passive
    and never moves the seeded schedule. Runs that need a live reshard or
    a non-default deployment call the drivers directly. *)

module Run = Chaos.Driver.Run
module Env = Chaos.Driver.Env

type check_mode = Chaos.Driver.check_mode
(** How a run verifies its history: [`Offline] (the default) checks
    post-hoc, [`Online] feeds {!Rss_core.Check_online} as records arrive,
    [`No_check] skips verification (verdict [Unknown]). The mode never
    moves the simulation. *)

val spanner_wan :
  ?config:Spanner.Config.t option -> ?env:Env.t -> mode:Spanner.Config.mode ->
  theta:float -> n_keys:int -> arrival_rate_per_sec:float ->
  duration_s:float -> seed:int -> unit -> Run.t
(** §6.1: Retwis over the CA/VA/IR deployment (or [config]) with
    partly-open clients — a fresh session, and t_min, per arrival, stay
    probability 0.9. The first 10% of the run is warm-up and is not
    recorded. Latencies: ["ro"], ["rw"]. *)

val spanner_dc :
  ?env:Env.t -> mode:Spanner.Config.mode -> n_shards:int ->
  service_time_us:int -> n_clients:int -> n_keys:int -> duration_s:float ->
  seed:int -> unit -> Run.t
(** §6.2 saturation: closed-loop clients over one site. Latencies:
    ["txn"]; gauges: ["throughput_tps"], ["p50_ms"], ["msgs_per_txn"]. *)

val gryff_wan :
  ?n_clients:int -> ?client_sites:int array -> ?env:Env.t ->
  mode:Gryff.Config.mode -> conflict:float -> write_ratio:float ->
  n_keys:int -> duration_s:float -> seed:int -> unit -> Run.t
(** §7.2: YCSB over the five-region deployment, [n_clients] (default 16)
    closed-loop clients spread over [client_sites] (default all five
    regions). Latencies: ["read"], ["write"]. *)

val gryff_dc :
  ?env:Env.t -> mode:Gryff.Config.mode -> service_time_us:int ->
  n_clients:int -> conflict:float -> write_ratio:float -> n_keys:int ->
  duration_s:float -> seed:int -> unit -> Run.t
(** §7.4 overhead. Latencies: ["op"]; gauges: ["throughput_tps"],
    ["p50_ms"]. *)

val report_check : string -> Run.verdict -> unit
(** {!Run.report_check}: a loud [!!] warning if a run's history failed
    verification, a [??] note on [Unknown]. *)
