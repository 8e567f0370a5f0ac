(* route-hot: a closed loop with one client through [Router.route] over
   two in-process RISCV shards and an on-disk result [Cache], after one
   warm round over every function. Function names are Zipf-distributed
   (s = 1) over the function order; the popularity law is an assumption,
   not measured. Only this workload exercises shard; decoder changes
   should not move it. *)

module P = Vega.Pipeline
module Proto = Vega_serve.Proto
module Server = Vega_serve.Server
module Router = Vega_shard.Router
module Cache = Vega_shard.Cache
module Rng = Vega_util.Rng
open Bx

let target = "RISCV"
let zipf_s = 1.0

type fleet = { router : Router.t; cache : Cache.t; servers : Server.t list }

let build (t : P.t) ~decoder =
  let config = { Wl_stream.server_config with queue_cap = 64 } in
  let servers =
    List.init 2 (fun _ ->
        match Server.create ~config t ~target ~decoder with
        | Ok s -> s
        | Error e -> failwith ("route-hot: " ^ e))
  in
  let fingerprint = P.fingerprint t ~target in
  let desc_hash =
    Cache.desc_hash_of_vfs t.P.prep.P.corpus.Vega_corpus.Corpus.vfs ~target
  in
  let cache = Cache.create ~dir:(fresh_dir "cache") ~fingerprint ~desc_hash () in
  let router =
    match
      Router.create ~cache ~fingerprint ~desc_hash
        (List.mapi (fun i s -> Router.of_server ~name:(Printf.sprintf "shard-%d" i) s) servers)
    with
    | Ok r -> r
    | Error e -> failwith ("route-hot: " ^ e)
  in
  { router; cache; servers }

let request = Wl_stream.request

let correct fname = function
  | Proto.Done { r_fname; r_source; _ } -> (
      match List.find_opt (fun (f, _, _) -> f = fname) Pins.riscv_functions with
      | Some (_, digest, _) ->
          r_fname = fname && Digest.to_hex (Digest.string r_source) = digest
      | None -> false)
  | Proto.Rejected _ | Proto.Failed _ -> false

(* Cumulative Zipf weights over ranks 1..n. *)
let zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw_index rng cdf =
  let u = Rng.float rng 1.0 in
  let rec bs lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then bs lo mid else bs (mid + 1) hi
  in
  min (Array.length cdf - 1) (bs 0 (Array.length cdf - 1))

type window = {
  w_routes : int;
  w_secs : float;
  w_batch_rps : float list;  (* routes/s of each run of [batch] routes *)
  w_lat : float array;  (* seconds, per route *)
  w_bad : int;
}

(* Pre-drawn request sequence so the measured loop does nothing but
   route and check. Popularity ranks follow the function order (cached
   replies differ in size, so a seeded ranking would change the work
   from seed to seed); the draws come from the seed. *)
let requests rng ~n =
  let names = Array.of_list (List.map (fun (f, _, _) -> f) Pins.riscv_functions) in
  let cdf = zipf_cdf (Array.length names) in
  Array.init n (fun _ -> names.(draw_index rng cdf))

(* The host this runs on stalls now and then for milliseconds, which a
   30 us route cannot hide: the mean rate over a run swung by half from
   run to run while the median route time held. The reported rate is
   the median over runs of [batch] routes. *)
let batch = 1000

let closed_loop fl ~names ~seconds ~traced =
  let lat = Array.make (Array.length names) 0.0 in
  let bad = ref 0 in
  settle_heap ();
  let t0 = now () in
  let stop = t0 +. seconds in
  let i = ref 0 and batch_t0 = ref t0 and batch_rps = ref [] in
  let continue = ref true in
  while !continue do
    let fname = names.(!i mod Array.length names) in
    let a = now () in
    let reply =
      if traced then
        Trace.span ~rid:!i "router.route" (fun () -> Router.route fl.router (request fname))
      else Router.route fl.router (request fname)
    in
    let b = now () in
    if !i < Array.length lat then lat.(!i) <- b -. a;
    if not (correct fname reply) then incr bad;
    incr i;
    if !i mod batch = 0 then begin
      batch_rps := (float_of_int batch /. (b -. !batch_t0)) :: !batch_rps;
      batch_t0 := b
    end;
    if b >= stop then continue := false
  done;
  let secs = now () -. t0 in
  {
    w_routes = !i;
    w_secs = secs;
    w_batch_rps = !batch_rps;
    w_lat = Array.sub lat 0 (min !i (Array.length lat));
    w_bad = !bad;
  }

(* Upper bound on routes per window, for the pre-drawn sequence. *)
let max_routes ~seconds = int_of_float (seconds *. 60_000.0) + 1000

let run ~seconds ~seed ~trace =
  let s = setup () in
  let t = s.pipeline in
  let decoder = P.retrieval_decoder t in
  let decoder fv = Trace.span "decode" (fun () -> decoder fv) in
  let fl = build t ~decoder in
  (* warm round: every function once, cold, through the router, from
     two callers so both shards generate at once *)
  let warm_bad, warm_s =
    time (fun () ->
        Vega_util.Par.map ~domains:2
          (fun (f, _, _) -> correct f (Router.route fl.router (request f)))
          Pins.riscv_functions
        |> List.filter not |> List.length)
  in
  let c0 = Cache.stats fl.cache and r0 = Router.counters fl.router in
  let rng = Rng.create seed in
  let window = if trace then seconds /. 2.0 else seconds in
  let names = requests rng ~n:(max_routes ~seconds:window) in
  let gc0 = gc_mark () in
  let w = closed_loop fl ~names ~seconds:window ~traced:false in
  let gcm = gc_metrics gc0 in
  let lat = Array.to_list w.w_lat in
  let rps = median w.w_batch_rps in
  let e2e = e2e_metrics ~work_per_s:rps ~setup_s:s.setup_s lat in
  let notes =
    [
      Printf.sprintf "warm round: %d functions in %.3f s, %d wrong" (List.length Pins.riscv_functions)
        warm_s warm_bad;
      Printf.sprintf
        "untraced: %d routes in %.3f s (%.0f routes/s, median batch %.0f), p50 %.1f us, p99 %.1f us, %d wrong"
        w.w_routes w.w_secs (ratio (float_of_int w.w_routes) w.w_secs) rps (1e6 *. median lat)
        (1e6 *. quantile 0.99 lat) w.w_bad;
    ]
  in
  let finish r =
    List.iter Server.drain fl.servers;
    r
  in
  let attempted = List.length Pins.riscv_functions + w.w_routes in
  let failed = warm_bad + w.w_bad in
  if not trace then
    finish { r_attempted = attempted; r_failed = failed; r_e2e = e2e; r_layer = []; r_notes = notes }
  else begin
    let path = Filename.concat (fresh_dir "trace") "spans.tsv" in
    let tw =
      Trace.section ~path (fun () -> closed_loop fl ~names ~seconds:window ~traced:true)
    in
    let sm = Trace.report path in
    let c1 = Cache.stats fl.cache and r1 = Router.counters fl.router in
    let routes = r1.Router.rt_routed - r0.Router.rt_routed in
    let hits = r1.Router.rt_cache_hits - r0.Router.rt_cache_hits in
    let trps = median tw.w_batch_rps in
    let layer =
      [
        m "route_rps" "1/s" rps;
        m "route_p50_us" "us" (1e6 *. median lat);
        m "route_p99_us" "us" (1e6 *. quantile 0.99 lat);
        m "retrieval.calls" "count" (float_of_int (Trace.count sm "decode"));
        m "retrieval.busy_s" "s" (Trace.busy sm "decode");
        m "router.routes" "count" (float_of_int routes);
        m "router.busy_s" "s" (Trace.busy sm "router.route");
        m "router.cache_hit_share" "share" (ratio (float_of_int hits) (float_of_int routes));
        m "cache.hits" "count" (float_of_int (c1.Cache.c_hits - c0.Cache.c_hits));
        m "cache.misses" "count" (float_of_int (c1.Cache.c_misses - c0.Cache.c_misses));
        m "cache.evictions" "count" (float_of_int (c1.Cache.c_evictions - c0.Cache.c_evictions));
        m "client.sent" "count" (float_of_int (w.w_routes + tw.w_routes));
        m "client.ok" "count" (float_of_int (w.w_routes + tw.w_routes - w.w_bad - tw.w_bad));
        m "client.failed" "count" (float_of_int (w.w_bad + tw.w_bad));
        m "route.warm_s" "s" warm_s;
        m "failed_share" "share"
          (ratio (float_of_int (failed + tw.w_bad)) (float_of_int (attempted + tw.w_routes)));
      ]
      @ trace_metrics sm ~overhead_pct:((100.0 *. (ratio rps trps -. 1.0)))
      @ setup_metrics s @ gcm
    in
    finish
      {
        r_attempted = attempted + tw.w_routes;
        r_failed = failed + tw.w_bad;
        r_e2e = e2e;
        r_layer = layer;
        r_notes =
          notes
          @ [
              Printf.sprintf "traced: %d routes in %.3f s (median batch %.0f routes/s)" tw.w_routes
                tw.w_secs trps;
            ];
      }
  end
