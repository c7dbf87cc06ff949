type mode = Strict | Rss

type t = {
  mode : mode;
  n_shards : int;
  rtt_ms : float array array;
  leader_site : int array;
  replica_sites : int list array;
  client_sites : int array;
  epsilon_us : int;
  service_time_us : int;
  jitter : float;
  fence_l_us : int;
  tee_pad_us : int;
}

let wan3 ~mode () =
  let rtt_ms = Sim.Topology.wan3.Sim.Topology.rtt_ms in
  {
    mode;
    n_shards = 3;
    rtt_ms;
    leader_site = [| 0; 1; 2 |];
    replica_sites = [| [ 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] |];
    client_sites = [| 0; 1; 2 |];
    epsilon_us = 10_000;
    service_time_us = 0;
    jitter = 0.02;
    fence_l_us = 400_000;
    tee_pad_us = 0;
  }

let single_dc ~mode ~n_shards ~service_time_us () =
  (* Everything in one site; replicas are distinct machines but latency is
     the in-DC 0.2 ms. We keep a single logical site. *)
  let rtt_ms = (Sim.Topology.single_dc ~n:1).Sim.Topology.rtt_ms in
  {
    mode;
    n_shards;
    rtt_ms;
    leader_site = Array.make n_shards 0;
    replica_sites = Array.make n_shards [ 0; 0 ];
    client_sites = [| 0 |];
    epsilon_us = 0;
    service_time_us;
    jitter = 0.02;
    fence_l_us = 50_000;
    tee_pad_us = 0;
  }

let site_name t site =
  if Array.length t.rtt_ms = 3 then Sim.Topology.(site_name wan3 site)
  else Fmt.str "site%d" site

let shard_of_key t key = key mod t.n_shards

(* [Sim.Engine.ms]'s rounding, written out so the float stays unboxed: the
   commit-latency estimate calls this several times per RW commit. *)
let rtt_us t a b = int_of_float ((t.rtt_ms.(a).(b) *. 1_000.0) +. 0.5)

let one_way_us t a b = rtt_us t a b / 2

let rec count_at_most t leader rtt = function
  | [] -> 0
  | site :: rest ->
    Bool.to_int (rtt_us t leader site <= rtt) + count_at_most t leader rtt rest

(* The [rank]-th smallest (1-based) RTT from [leader] to [sites]: the
   smallest RTT with at least [rank] RTTs at or below it. [best] is the
   smallest found so far among the sites already passed. *)
let rec rank_rtt t leader rank sites best = function
  | [] -> best
  | site :: rest ->
    let rtt = rtt_us t leader site in
    let best =
      if rtt < best && count_at_most t leader rtt sites >= rank then rtt else best
    in
    rank_rtt t leader rank sites best rest

(* A majority of the leader and its replicas: the leader plus the nearest
   [needed] replicas, so the quorum RTT is the [needed]-th smallest. *)
let replicate_us t ~shard =
  let replicas = t.replica_sites.(shard) in
  let needed = (1 + List.length replicas) / 2 in
  if needed = 0 then 0
  else rank_rtt t t.leader_site.(shard) needed replicas max_int replicas

let estimate_commit_latency_us t ~client_site ~participants =
  let latency_with_coord coord =
    let prepare_paths =
      List.filter_map
        (fun p ->
          if p = coord then None
          else
            Some
              (one_way_us t client_site t.leader_site.(p)
              + replicate_us t ~shard:p
              + one_way_us t t.leader_site.(p) t.leader_site.(coord)))
        participants
    in
    let to_coord = one_way_us t client_site t.leader_site.(coord) in
    let slowest = List.fold_left max to_coord prepare_paths in
    slowest
    + replicate_us t ~shard:coord
    + one_way_us t t.leader_site.(coord) client_site
  in
  match participants with
  | [] -> invalid_arg "estimate_commit_latency_us: no participants"
  | first :: rest ->
    List.fold_left
      (fun (best, best_lat) coord ->
        let lat = latency_with_coord coord in
        if lat < best_lat then (coord, lat) else (best, best_lat))
      (first, latency_with_coord first)
      rest
