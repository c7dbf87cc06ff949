(** Load-generation client models (§6 and §7).

    - {!closed_loop}: a fixed number of clients, each issuing its next
      operation as soon as the previous one completes (plus optional think
      time) — the Gryff evaluation and the throughput experiments.
    - {!partly_open}: Schroeder et al.'s partly-open model — sessions arrive
      as a Poisson process at rate λ; after each operation a session stays
      with probability [p] (thinking for [think_us]) or departs. The paper's
      Spanner experiments use p = 0.9 (mean session length 10) and H = 0,
      with a fresh t_min per session.

    - {!slots}: a fixed number of session slots with per-operation
      timeouts — the chaos audits. An operation that misses its timeout
      abandons its session and a fresh session takes the slot.

    The [body] callback issues exactly one operation/transaction and invokes
    the given continuation when it completes. *)

type body = client:int -> (unit -> unit) -> unit

val closed_loop :
  Sim.Engine.t -> n_clients:int -> ?think_us:int -> body:body -> until:int ->
  unit -> unit
(** Schedules the client loops; stops issuing new operations at [until]
    (in-flight operations still run to completion when the engine drains). *)

val partly_open :
  Sim.Engine.t -> rng:Sim.Rng.t -> arrival_rate_per_sec:float -> stay:float ->
  ?think_us:int -> body:body -> until:int -> unit -> int
(** Returns a conservative upper bound on the number of sessions that will
    have been created by [until]. The [client] id passed to [body] is the
    session id (fresh per session). Raises [Invalid_argument] for a
    non-positive arrival rate or a stay probability outside [\[0, 1)]. *)

type slot_stats = {
  mutable completed : int;
  mutable timed_out : int;  (** abandoned after [timeout_us]; session retired *)
  mutable post_quiet_completed : int;
      (** completed ops invoked at or after [quiet_us] *)
  mutable post_quiet_timed_out : int;
  timed_out_kinds : (string, int) Hashtbl.t;
      (** the timeouts split by the kind [issue] named — a fault that only
          starves one kind is visible here and hidden in the aggregate *)
}

val timed_out_by_kind : slot_stats -> (string * int) list
(** [timed_out_kinds] as a sorted association list. *)

val slots :
  Sim.Engine.t -> n_slots:int -> timeout_us:int -> quiet_us:int ->
  latency:(int -> unit) -> new_session:(int -> 'c) ->
  issue:('c -> kind:(string -> unit) -> finish:(unit -> unit) -> unit) ->
  until:int -> unit -> slot_stats
(** Run [n_slots] session slots, each one session at a time, until [until].
    [new_session slot] opens a session; [issue] starts one operation on it,
    names its kind through [kind] and calls [finish] on completion. An
    operation still unfinished [timeout_us] after its invocation abandons
    the session for good (its process id is never reused, so session-order
    checking stays sound) and a fresh session takes the slot; a late
    completion of an abandoned operation is ignored. [latency] receives the
    response time of every counted completion. [quiet_us] splits the
    counts at the moment faults stop: completions of ops invoked after it
    prove liveness resumed. The first operation of every slot is issued
    before [slots] returns. *)
