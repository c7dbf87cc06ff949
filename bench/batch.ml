(* Batching / group-commit section.

   Drives the two single-DC saturation scenarios (spanner-dc, gryff-dc) with
   batching off (the baseline) and across a sweep of link-batching policies
   (deadline windows and the adaptive flush-on-idle policy), each both raw
   ([`No_check]) and online-checked — the point being that group commit buys
   saturation throughput by cutting messages per transaction, without the
   online checker losing the history.

     dune exec bench/suite.exe -- batch            # full sizes, ~1 min
     dune exec bench/suite.exe -- --smoke batch    # CI sizes

   Gates: every run did work, every online-checked run passed, every
   batched run coalesced, every batched policy cut spanner-dc messages per
   transaction, and a full (non-smoke) run's best policy reached the >= 15%
   spanner-dc saturation-throughput gain this section exists to defend. *)

type measured = {
  check : string;  (* "none" | "online" *)
  n_ops : int;
  tput : float;  (* completed ops per simulated second, post-warm-up *)
  p50_ms : float option;
  msgs_per_txn : float option;  (* spanner-dc only *)
  msgs_per_op : float;  (* net.messages / n_ops, protocol-agnostic *)
  cpu_s : float;
  batch_envelopes : int;
  batch_members : int;
  verdict : string;
  detail : string;
}

let measure ~check_name (f : unit -> Harness.Run.t) =
  Gc.compact ();
  let t0 = Sys.time () in
  let r = f () in
  let cpu_s = Sys.time () -. t0 in
  let n_ops = Harness.Run.n_records r in
  {
    check = check_name;
    n_ops;
    tput = Option.value (Harness.Run.gauge_opt r "throughput_tps") ~default:0.0;
    p50_ms = Harness.Run.gauge_opt r "p50_ms";
    msgs_per_txn = Harness.Run.gauge_opt r "msgs_per_txn";
    msgs_per_op =
      float_of_int (Harness.Run.counter r "net.messages")
      /. float_of_int (max 1 n_ops);
    cpu_s;
    batch_envelopes = Harness.Run.counter r "batch.envelopes";
    batch_members = Harness.Run.counter r "batch.members";
    verdict = Section.verdict_name r.Harness.Run.check;
    detail = Section.verdict_detail r.Harness.Run.check;
  }

(* ------------------------------------------------------------------ *)
(* Policies and scenarios                                              *)
(* ------------------------------------------------------------------ *)

let policies =
  [
    ("deadline-25us", { Sim.Net.batch_us = 25; batch_max = 32; adaptive = false });
    ("deadline-50us", { Sim.Net.batch_us = 50; batch_max = 32; adaptive = false });
    ("deadline-100us", { Sim.Net.batch_us = 100; batch_max = 64; adaptive = false });
    ("adaptive-50us", { Sim.Net.batch_us = 50; batch_max = 32; adaptive = true });
  ]

type scenario = {
  name : string;
  duration_s : float;
  smoke_duration_s : float;
  run : env:Harness.Env.t -> duration_s:float -> Harness.Run.t;
}

let scenarios ~seed =
  [
    (* Client counts sit at the baseline's saturation knee (its throughput
       plateaus there; more clients only grow queues), so the comparison is
       the paper-style saturation throughput, not a latency race. *)
    {
      name = "spanner-dc-rss";
      duration_s = 10.0;
      smoke_duration_s = 2.0;
      run =
        (fun ~env ~duration_s ->
          Harness.spanner_dc ~env ~mode:Spanner.Config.Rss ~n_shards:4
            ~service_time_us:10 ~n_clients:64 ~n_keys:2000 ~duration_s ~seed ());
    };
    {
      name = "gryff-dc-rsc";
      duration_s = 4.0;
      smoke_duration_s = 0.5;
      run =
        (fun ~env ~duration_s ->
          Harness.gryff_dc ~env ~mode:Gryff.Config.Rsc ~service_time_us:10
            ~n_clients:48 ~conflict:0.1 ~write_ratio:0.5 ~n_keys:2000
            ~duration_s ~seed ());
    };
  ]

let measured_json m =
  Obs.Json.(
    Obj
      [
        ("check", Str m.check);
        ("n_ops", int m.n_ops);
        ("throughput_tps", Num m.tput);
        ("p50_ms", opt (fun f -> Num f) m.p50_ms);
        ("msgs_per_txn", opt (fun f -> Num f) m.msgs_per_txn);
        ("msgs_per_op", Num m.msgs_per_op);
        ("cpu_s", Num m.cpu_s);
        ("batch_envelopes", int m.batch_envelopes);
        ("batch_members", int m.batch_members);
        ("verdict", Str m.verdict);
        ("detail", Str m.detail);
      ])

let pair_json (raw, online) =
  Obs.Json.Obj [ ("raw", measured_json raw); ("online", measured_json online) ]

(* ------------------------------------------------------------------ *)
(* Section                                                             *)
(* ------------------------------------------------------------------ *)

(* Whether every batched policy sent fewer messages per transaction than
   the unbatched baseline. *)
let msgs_drop (_, base) sweep =
  List.for_all
    (fun (_, _, (_, online)) ->
      match (online.msgs_per_txn, base.msgs_per_txn) with
      | Some m, Some b -> m < b
      | _ -> false)
    sweep

let run ~smoke : Section.t =
  let results =
    List.map
      (fun sc ->
        let duration_s = if smoke then sc.smoke_duration_s else sc.duration_s in
        Printf.printf "== %s (%.1f simulated s) ==\n%!" sc.name duration_s;
        let run_pair env_of_check =
          let raw =
            measure ~check_name:"none" (fun () ->
                sc.run ~env:(env_of_check `No_check) ~duration_s)
          in
          let online =
            measure ~check_name:"online" (fun () ->
                sc.run ~env:(env_of_check `Online) ~duration_s)
          in
          if online.verdict <> "pass" then
            Printf.printf "   CONSISTENCY %s: %s\n%!"
              (String.uppercase_ascii online.verdict)
              online.detail;
          (raw, online)
        in
        let baseline =
          run_pair (fun check -> Harness.Env.(default |> with_check check))
        in
        let base_online = snd baseline in
        Printf.printf "   baseline:       %8.0f tps  %6.2f msgs/op\n%!"
          base_online.tput base_online.msgs_per_op;
        let sweep =
          List.map
            (fun (pname, policy) ->
              let raw, online =
                run_pair (fun check ->
                    Harness.Env.(
                      default |> with_check check |> with_batching (Some policy)))
              in
              Printf.printf
                "   %-15s %8.0f tps  %6.2f msgs/op  avg batch %4.1f  verdict=%s\n%!"
                pname online.tput online.msgs_per_op
                (float_of_int online.batch_members
                /. float_of_int (max 1 online.batch_envelopes))
                online.verdict;
              (pname, policy, (raw, online)))
            policies
        in
        let best =
          List.fold_left
            (fun acc (_, _, (_, online)) -> Float.max acc online.tput)
            neg_infinity sweep
        in
        let gain = (best -. base_online.tput) /. Float.max 1e-9 base_online.tput in
        Printf.printf "   best gain over baseline: %+.1f%%\n%!" (gain *. 100.0);
        (sc, baseline, sweep, gain))
      (scenarios ~seed:Section.seed)
  in
  let spanner = List.filter (fun (sc, _, _, _) -> sc.name = "spanner-dc-rss") results in
  let spanner_gain = match spanner with (_, _, _, g) :: _ -> g | [] -> nan in
  let report =
    Obs.Json.(
      Obj
        [
          ("seed", int Section.seed);
          ( "scenarios",
            Arr
              (List.map
                 (fun (sc, baseline, sweep, gain) ->
                   Obj
                     [
                       ("name", Str sc.name);
                       ("baseline", pair_json baseline);
                       ( "sweep",
                         Arr
                           (List.map
                              (fun (pname, policy, pair) ->
                                Obj
                                  [
                                    ("policy", Str pname);
                                    ("batch_us", int policy.Sim.Net.batch_us);
                                    ("batch_max", int policy.Sim.Net.batch_max);
                                    ("adaptive", Bool policy.Sim.Net.adaptive);
                                    ("raw", measured_json (fst pair));
                                    ("online", measured_json (snd pair));
                                  ])
                              sweep) );
                       ("best_gain", Num gain);
                     ])
                 results) );
          ("spanner_dc_gain", Num spanner_gain);
        ])
  in
  let baselines = List.map (fun (_, b, _, _) -> b) results in
  let sweeps = List.concat_map (fun (_, _, s, _) -> List.map (fun (_, _, p) -> p) s) results in
  let did_work (raw, online) = raw.n_ops > 0 && online.n_ops > 0 in
  let passed (_, online) = online.verdict = "pass" in
  let gates =
    [
      ("scenarios", List.length results = 2);
      ("baseline_did_work", List.for_all did_work baselines);
      ("sweep_did_work", List.for_all did_work sweeps);
      ("baseline_online_pass", List.for_all passed baselines);
      ("sweep_online_pass", List.for_all passed sweeps);
      ( "batches_coalesce",
        List.for_all
          (fun (_, o) -> o.batch_envelopes > 0 && o.batch_members >= o.batch_envelopes)
          sweeps );
      ( "spanner_msgs_per_txn_drop",
        List.for_all (fun (_, baseline, sweep, _) -> msgs_drop baseline sweep) spanner );
    ]
    @ if smoke then [] else [ ("spanner_gain_15pct", spanner_gain >= 0.15) ]
  in
  (report, gates)
