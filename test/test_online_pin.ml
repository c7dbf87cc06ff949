(* Golden pins over Rss_core.Check_online's observable output: the verdict
   (with its message), the work meter, the largest displacement and the
   number of transactions added, for every history of test_scale.ml's
   random battery in all three modes, valid and mutated, plus the
   starved-work-budget cases that take the suffix fallback; and the offline
   Rss_core.Witness.check's verdicts over the same batteries and two more.
   Each group is pinned as the MD5 of one line per history. A change to
   either checker's internals must reproduce every pin unedited. *)

let check = Alcotest.check
let string = Alcotest.string

module CO = Rss_core.Check_online

let add_line b ~mode_name ~seed t =
  let verdict =
    match CO.result t with
    | CO.Pass -> "pass"
    | CO.Fail m -> "fail " ^ m
    | CO.Unknown m -> "unknown " ^ m
  in
  Buffer.add_string b
    (Printf.sprintf "%s %d n=%d work=%d maxd=%d %s\n" mode_name seed
       (CO.n_added t) (CO.work t) (CO.max_displacement t) verdict)

let run ?work_budget ?fallback_states ~mode txns =
  let t = CO.create ?work_budget ?fallback_states ~mode () in
  Array.iter (CO.add t) txns;
  t

(* [history ~mode_name seed] is one battery history; [feed] runs it. *)
let digest ~seeds ~history ~feed =
  let b = Buffer.create 65536 in
  List.iter
    (fun (mode, mode_name) ->
      for seed = 1 to seeds do
        add_line b ~mode_name ~seed (feed ~mode (history ~mode_name seed))
      done)
    Test_scale.modes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let battery ~salt ~mutated ~mode_name seed =
  let rng = Sim.Rng.make (seed + (salt * Hashtbl.hash mode_name)) in
  let txns, max_val =
    Test_scale.gen_history ~rng ~n:(20 + Sim.Rng.int rng 80)
      ~n_procs:(1 + Sim.Rng.int rng 6)
      ~n_keys:(1 + Sim.Rng.int rng 6)
  in
  if mutated then Test_scale.mutate ~rng ~max_val txns else txns

let starved ~mode_name seed =
  let rng = Sim.Rng.make (seed + (0x7ea * Hashtbl.hash mode_name)) in
  let txns, max_val = Test_scale.gen_history ~rng ~n:60 ~n_procs:4 ~n_keys:4 in
  if seed mod 2 = 0 then Test_scale.mutate ~rng ~max_val txns else txns

(* Histories the suffix fallback can confirm: every process is sequential
   (each invocation follows its previous response), so the response-ordered
   stream is also invocation-ordered per process, and serialization order
   follows invocation order. Arrival jitter still displaces inserts, so a
   small work budget overflows and the bounded search runs on the suffix
   with the prefix's final store as its initial write. *)
let sequential ~mode_name seed =
  let rng = Sim.Rng.make (seed + (0x5e9 * Hashtbl.hash mode_name)) in
  let n_keys = 1 + Sim.Rng.int rng 5 in
  let store = Hashtbl.create 8 in
  let free = Array.make 6 min_int in
  let next_val = ref 0 in
  let txns =
    Array.init (12 + Sim.Rng.int rng 30) (fun i ->
        let inv = (10 * i) + Sim.Rng.int rng 10 in
        let resp = inv + Sim.Rng.int rng 30 in
        let p0 = Sim.Rng.int rng (Array.length free) in
        let proc = ref p0 in
        while free.(!proc mod 6) >= inv && !proc < p0 + 6 do
          incr proc
        done;
        let proc = if !proc = p0 + 6 then 6 + i else !proc mod 6 in
        if proc < 6 then free.(proc) <- resp;
        let key = Printf.sprintf "k%d" (Sim.Rng.int rng n_keys) in
        let reads = [ (key, Hashtbl.find_opt store key) ] in
        let writes =
          if Sim.Rng.bool rng 0.5 then begin
            incr next_val;
            let wk = Printf.sprintf "k%d" (Sim.Rng.int rng n_keys) in
            Hashtbl.replace store wk !next_val;
            [ (wk, !next_val) ]
          end
          else []
        in
        { Rss_core.Witness.proc; reads; writes; inv; resp; ts = i; rank = 0 })
  in
  Array.stable_sort
    (fun a b -> Stdlib.compare a.Rss_core.Witness.resp b.Rss_core.Witness.resp)
    txns;
  txns

let test_valid () =
  check string "valid battery"
    "d1cf059ab5fd4f8b8ab458c266965ac9"
    (digest ~seeds:200
       ~history:(battery ~salt:0x5ca1e ~mutated:false)
       ~feed:(fun ~mode txns -> run ~mode txns))

let test_mutated () =
  check string "mutated battery"
    "ea919cd41e1ec4ee66bb9a34d77b76d4"
    (digest ~seeds:200
       ~history:(battery ~salt:0xbad ~mutated:true)
       ~feed:(fun ~mode txns -> run ~mode txns))

let test_starved () =
  check string "starved fallback"
    "162268d6fd3d6fc40fe8c370fea0319e"
    (digest ~seeds:100 ~history:starved ~feed:(fun ~mode txns ->
         run ~work_budget:8 ~fallback_states:2_000 ~mode txns))

let test_fallback () =
  check string "suffix fallback"
    "b654fe09cc9d8c01599a747cd6ce17ad"
    (digest ~seeds:100 ~history:sequential ~feed:(fun ~mode txns ->
         run ~work_budget:4 ~fallback_states:20_000 ~mode txns))

(* Rss_core.Witness.check's results (Ok, or the Error message) over valid
   and mutated batteries in all three modes, plus wide histories with
   thousands of distinct keys, pinned as one MD5. *)
let witness_digest ~seeds ~history =
  let b = Buffer.create 65536 in
  List.iter
    (fun (mode, mode_name) ->
      for seed = 1 to seeds do
        let verdict =
          match Rss_core.Witness.check ~mode (history ~mode_name seed) with
          | Ok () -> "ok"
          | Error m -> "error " ^ m
        in
        Buffer.add_string b (Printf.sprintf "%s %d %s\n" mode_name seed verdict)
      done)
    Test_scale.modes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let wide ~mode_name seed =
  let rng = Sim.Rng.make (seed + (0x31de * Hashtbl.hash mode_name)) in
  let txns, max_val =
    Test_scale.gen_history ~rng ~n:(1_000 + Sim.Rng.int rng 1_000) ~n_procs:8
      ~n_keys:(500 + Sim.Rng.int rng 3_000)
  in
  if seed mod 3 = 0 then txns else Test_scale.mutate ~rng ~max_val txns

(* Legal, session-free histories with scrambled invocation and response
   times and few writers: the real-time checks, including the
   writer-after-reader one, produce most of the verdicts. *)
let scrambled ~mode_name seed =
  let rng = Sim.Rng.make (seed + (0x5c4 * Hashtbl.hash mode_name)) in
  let n = 30 + Sim.Rng.int rng 170 in
  let n_keys = 1 + Sim.Rng.int rng 40 in
  let p_write = [| 0.01; 0.03; 0.15 |].(seed mod 3) in
  let store = Hashtbl.create 64 in
  Array.init n (fun i ->
      let key () = Printf.sprintf "k%d" (Sim.Rng.int rng n_keys) in
      let inv = Sim.Rng.int rng (10 * n) in
      let resp = inv + Sim.Rng.int rng 50 in
      if Sim.Rng.bool rng p_write then begin
        let k = key () in
        Hashtbl.replace store k i;
        { Rss_core.Witness.proc = i; reads = []; writes = [ (k, i) ]; inv; resp; ts = i; rank = 0 }
      end
      else
        let reads = List.map (fun k -> (k, Hashtbl.find_opt store k)) [ key (); key () ] in
        { Rss_core.Witness.proc = i; reads; writes = []; inv; resp; ts = i; rank = 1 })

let test_witness () =
  check string "witness valid battery"
    "511fe69d6deac2d7a11930696df69917"
    (witness_digest ~seeds:200 ~history:(battery ~salt:0x5ca1e ~mutated:false));
  check string "witness mutated battery"
    "842c64837c3eb4568304f184a51fb15d"
    (witness_digest ~seeds:200 ~history:(battery ~salt:0xbad ~mutated:true));
  check string "witness wide histories"
    "90f631c6b2bfe198819e33fbebe71c66"
    (witness_digest ~seeds:12 ~history:wide);
  check string "witness scrambled real time"
    "42bd1cc3b0d14d966e2859b62e715bca"
    (witness_digest ~seeds:200 ~history:scrambled)

let suites =
  [
    ( "scale.online_pins",
      [
        Alcotest.test_case "valid battery digest" `Quick test_valid;
        Alcotest.test_case "mutated battery digest" `Quick test_mutated;
        Alcotest.test_case "starved fallback digest" `Quick test_starved;
        Alcotest.test_case "suffix fallback digest" `Quick test_fallback;
        Alcotest.test_case "witness check digest" `Quick test_witness;
      ] );
  ]
