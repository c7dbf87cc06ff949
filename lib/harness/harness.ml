(* The paper's experiments as presets over the one driver per protocol
   (Chaos.Driver): each picks a deployment and a load and passes the
   caller's environment through. *)

module Run = Chaos.Driver.Run
module Env = Chaos.Driver.Env

type check_mode = Chaos.Driver.check_mode

(* §6.1: partly-open sessions at [arrival_rate_per_sec], stay probability
   0.9, zero think time, a fresh t_min per session; Zipfian keys. *)
let spanner_wan ?(config = None) ?(env = Env.default) ~mode ~theta ~n_keys
    ~arrival_rate_per_sec ~duration_s ~seed () =
  let config =
    match config with Some c -> c | None -> Spanner.Config.wan3 ~mode ()
  in
  Chaos.Driver.spanner
    (Chaos.Driver.spanner_deployment config ~theta ~n_keys)
    (Chaos.Driver.Partly_open { rate = arrival_rate_per_sec; stay = 0.9 })
    env ~duration_s ~seed

(* §6.2: closed-loop clients, uniform keys, ε = 0, per-message CPU cost at
   shard leaders. *)
let spanner_dc ?(env = Env.default) ~mode ~n_shards ~service_time_us
    ~n_clients ~n_keys ~duration_s ~seed () =
  Chaos.Driver.spanner
    {
      (Chaos.Driver.spanner_deployment
         (Spanner.Config.single_dc ~mode ~n_shards ~service_time_us ())
         ~theta:0.0 ~n_keys) with
      Chaos.Driver.sp_window = Chaos.Driver.Saturation;
    }
    (Chaos.Driver.Closed { n_clients })
    env ~duration_s ~seed

(* §7.2: closed-loop clients spread over the five regions (or over
   [client_sites], e.g. off a gray node). *)
let gryff_wan ?(n_clients = 16) ?client_sites ?(env = Env.default) ~mode
    ~conflict ~write_ratio ~n_keys ~duration_s ~seed () =
  let d =
    Chaos.Driver.gryff_deployment (Gryff.Config.wan5 ~mode ()) ~conflict
      ~write_ratio ~n_keys
  in
  let d =
    match client_sites with
    | Some s -> { d with Chaos.Driver.gr_sites = s }
    | None -> d
  in
  Chaos.Driver.gryff d (Chaos.Driver.Closed { n_clients }) env ~duration_s ~seed

(* §7.4: in-DC latencies, per-message CPU cost. *)
let gryff_dc ?(env = Env.default) ~mode ~service_time_us ~n_clients ~conflict
    ~write_ratio ~n_keys ~duration_s ~seed () =
  Chaos.Driver.gryff
    {
      (Chaos.Driver.gryff_deployment
         (Gryff.Config.single_dc ~mode ~service_time_us ())
         ~conflict ~write_ratio ~n_keys) with
      Chaos.Driver.gr_window = Chaos.Driver.Saturation;
    }
    (Chaos.Driver.Closed { n_clients })
    env ~duration_s ~seed

let report_check = Run.report_check
