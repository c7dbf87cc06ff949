(* Golden pins over Rss_core.Check_online's observable output: the verdict
   (with its message), the work meter, the largest displacement and the
   number of transactions added, for every history of test_scale.ml's
   random battery in all three modes, valid and mutated, plus the
   starved-work-budget cases that take the suffix fallback. Each group is
   pinned as the MD5 of one line per history. A change to the checker's
   internals must reproduce every pin unedited. *)

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

let suites =
  [
    ( "scale.online_pins",
      [
        Alcotest.test_case "valid battery digest" `Quick test_valid;
        Alcotest.test_case "mutated battery digest" `Quick test_mutated;
        Alcotest.test_case "starved fallback digest" `Quick test_starved;
        Alcotest.test_case "suffix fallback digest" `Quick test_fallback;
      ] );
  ]
