(* Chaos audit section — every nemesis preset against every protocol,
   several seeds each, plus chaos-wrapped harness benchmarks. Excluded
   from tier-1 `dune runtest`; run with:

     dune exec bench/suite.exe -- audit            # full battery
     dune exec bench/suite.exe -- --smoke audit    # one seed per cell

   Gates: every battery cell passes its offline check and stays live, and
   every chaos-wrapped harness run passes. *)

let duration_s = 20.0

let audit_cell protocol preset ~seed =
  let name =
    Fmt.str "%-12s %-16s seed=%d"
      (Chaos.Audit.protocol_name protocol)
      (Chaos.Nemesis.preset_name preset)
      seed
  in
  let schedule =
    Chaos.Audit.nemesis_schedule protocol preset ~duration_s ~seed
  in
  let failover = Chaos.Nemesis.requires_failover preset in
  let r = Chaos.Audit.run protocol ~schedule ~failover ~duration_s ~seed () in
  let verdict =
    match r.Chaos.Audit.check with
    | Ok () -> "ok"
    | Error m -> Fmt.str "VIOLATION %s" m
  in
  let live = if Chaos.Audit.liveness_ok r then "live" else "STALLED" in
  let c = Chaos.Audit.counter r in
  let failover_summary =
    if failover then
      Fmt.str " vc=%d retries=%d indoubt=%d elect=%dus"
        r.Chaos.Audit.view_changes (c "failover.rpc_retries")
        (c "failover.in_doubt_resolved") (c "failover.max_election_us")
    else ""
  in
  Fmt.pr "  %s  %-10s %-8s ops=%-6d unacked=%-4d drops=%d/%d/%d%s@." name
    verdict live r.Chaos.Audit.ops_completed (c "op.unacked_commits_swept")
    (c "fault.dropped_crash") (c "fault.dropped_partition")
    (c "fault.dropped_loss") failover_summary;
  Obs.Json.(
    Obj
      [
        ("protocol", Str (Chaos.Audit.protocol_name protocol));
        ("preset", Str (Chaos.Nemesis.preset_name preset));
        ("seed", int seed);
        ("verdict", Str (if r.Chaos.Audit.check = Ok () then "pass" else "fail"));
        ("detail", Str (match r.Chaos.Audit.check with Ok () -> "" | Error m -> m));
        ("live", Bool (Chaos.Audit.liveness_ok r));
        ("ops", int r.Chaos.Audit.ops_completed);
        ("view_changes", int r.Chaos.Audit.view_changes);
      ]),
  r.Chaos.Audit.check = Ok () && Chaos.Audit.liveness_ok r

let battery seeds =
  Fmt.pr "== nemesis battery (%g s simulated per cell) ==@." duration_s;
  let cells =
    List.concat_map
      (fun protocol ->
        List.concat_map
          (fun (_, preset) ->
            List.map (fun seed -> audit_cell protocol preset ~seed) seeds)
          Chaos.Nemesis.presets)
      Chaos.Audit.protocols
  in
  let bad = List.length (List.filter (fun (_, ok) -> not ok) cells) in
  Fmt.pr "battery: %d passed, %d failed@.@." (List.length cells - bad) bad;
  cells

(* The harness integration path: the paper's §6.1 benchmark wrapped in a
   partition-heal schedule, fault accounting through the Summary tables. *)
let harness_demo () =
  Fmt.pr "== chaos-wrapped spanner_wan (partition-heal) ==@.";
  let chaos =
    Chaos.Nemesis.generate Chaos.Nemesis.Partition_heal ~n_sites:3
      ~duration_us:(Sim.Engine.sec duration_s) ~seed:7 ()
  in
  let r =
    Harness.spanner_wan
      ~env:Harness.Env.(default |> with_chaos chaos)
      ~mode:Spanner.Config.Rss ~theta:0.5 ~n_keys:5_000
      ~arrival_rate_per_sec:400.0 ~duration_s ~seed:7 ()
  in
  Harness.Run.print_summary ~header:"spanner-rss" r;
  Fmt.pr "@.";
  Fmt.pr "== chaos-wrapped spanner_wan (leader-kill, failover armed) ==@.";
  let lk =
    Harness.spanner_wan
      ~env:
        Harness.Env.(
          default
          |> with_chaos
               (Chaos.Nemesis.generate Chaos.Nemesis.Leader_kill ~n_sites:3
                  ~leaders:[ 0; 1; 2 ]
                  ~duration_us:(Sim.Engine.sec duration_s) ~seed:7 ())
          |> with_failover true)
      ~mode:Spanner.Config.Rss ~theta:0.5 ~n_keys:5_000
      ~arrival_rate_per_sec:100.0 ~duration_s ~seed:7 ()
  in
  Harness.Run.print_summary ~header:"spanner-rss failover" lk;
  Fmt.pr "@.";
  let gr =
    Harness.gryff_wan
      ~env:
        Harness.Env.(
          default
          |> with_chaos
               (Chaos.Nemesis.generate Chaos.Nemesis.Link_loss ~n_sites:5
                  ~duration_us:(Sim.Engine.sec duration_s) ~seed:7 ()))
      ~mode:Gryff.Config.Rsc ~conflict:0.1 ~write_ratio:0.3 ~n_keys:2_000
      ~duration_s ~seed:7 ()
  in
  Fmt.pr "== chaos-wrapped gryff_wan (link-loss) ==@.";
  Harness.Run.print_summary ~header:"gryff-rsc" gr;
  [
    ("spanner-rss partition-heal", r);
    ("spanner-rss leader-kill failover", lk);
    ("gryff-rsc link-loss", gr);
  ]

let run ~smoke : Section.t =
  let cells = battery (if smoke then [ 7 ] else [ 7; 23; 101 ]) in
  let harness = harness_demo () in
  let report =
    Obs.Json.(
      Obj
        [
          ("duration_s", Num duration_s);
          ("battery", Arr (List.map fst cells));
          ( "harness",
            Arr
              (List.map
                 (fun (name, r) ->
                   Obj
                     [
                       ("name", Str name);
                       ("n_ops", int (Harness.Run.n_records r));
                       ("verdict", Str (Section.verdict_name r.Harness.Run.check));
                     ])
                 harness) );
        ])
  in
  ( report,
    [
      ("battery_pass", List.for_all snd cells);
      ("harness_pass", List.for_all (fun (_, r) -> Harness.Run.passed r) harness);
    ] )
