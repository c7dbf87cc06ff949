(* One repetition of a workload, as the report sees it. *)

type t = {
  cost : Measure.cost;
      (** host cost of the measured work: setup, simulation and check
          (capped trials excluded) *)
  units : Measure.cost array;
      (** the same cost split by unit of work — one per finished trial, or
          the single run *)
  peak_heap_mb : float;
      (** peak major heap: the process's high-water mark after a run, or
          the largest heap seen between trials *)
  capped_cpu : float;  (** CPU burnt in trials that hit the cap *)
  ops : int;  (** completed simulated client operations *)
  attempted : int;  (** units attempted: operations, or trials *)
  failed : int;  (** units that failed, hung or judged [Fail] *)
  hung : int;  (** trials abandoned at the CPU cap *)
  msgs : int;  (** simulated messages sent *)
  sim_us : int;  (** simulated time covered *)
  reads : Stats.Recorder.t;  (** simulated read latency, µs *)
  writes : Stats.Recorder.t;  (** simulated write latency, µs *)
  failures : string list;  (** one line per failed unit, with its input *)
  problems : string list;  (** correctness problems: any makes the run fail *)
}

(* The exact counts: a pure function of the seed and the build. Two
   repetitions that differ here mean the simulator is not deterministic.
   [words] is left out when comparing a traced run to an untraced one,
   since the trace sink allocates. *)
let fingerprint ?(words = true) r =
  let lat rc =
    Printf.sprintf "%d/%.17g/%.17g" (Stats.Recorder.count rc)
      (Measure.pct_ms rc 50.0) (Measure.pct_ms rc 99.9)
  in
  Printf.sprintf
    "ops=%d attempted=%d failed=%d msgs=%d sim_us=%d reads=%s writes=%s%s"
    r.ops r.attempted r.failed r.msgs r.sim_us (lat r.reads) (lat r.writes)
    (if words then Printf.sprintf " words=%.0f" r.cost.Measure.words else "")
