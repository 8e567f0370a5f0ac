(* backend-gen: whole-backend generation (the paper's Fig. 7 job) for the
   three held-out targets with the retrieval decoder, fanned out over
   [Par.default_domains ()] domains. It exercises core.generate and
   core.retrieval and bypasses eval, serve and shard. *)

module P = Vega.Pipeline
module G = Vega.Generate
open Bx

let targets = [ "RISCV"; "RI5CY"; "XCore" ]

(* Digest of a generated backend: every function's full source (kept and
   sub-threshold statements) and the exact bits of its confidence. *)
let digest (fns : G.gen_func list) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (List.map
             (fun (gf : G.gen_func) ->
               Printf.sprintf "%s\x01%s\x01%Lx" gf.G.gf_fname (G.source_of_all gf)
                 (Int64.bits_of_float gf.G.gf_confidence))
             fns)))

let pinned target = List.assoc_opt target Pins.backend_digests

type window = {
  w_jobs : int;
  w_stmts : int;
  w_secs : float;  (* time inside generation calls *)
  w_job_s : float list;  (* whole-backend times *)
  w_bad : string list;  (* targets whose digest did not match *)
}

(* One whole backend per unit, the targets in turn. The number of units
   is fixed by the run length (one per five seconds), so every run does
   the same work on any host. The workload has no random input; the
   seed is unused. *)
let jobs ~seconds = max 1 (int_of_float (Float.round (seconds /. 5.0)))

let job_targets ~jobs = List.init jobs (fun i -> List.nth targets (i mod List.length targets))

let cycle ~jobs gen =
  List.fold_left
    (fun acc target ->
      settle_heap ();
      let fns, dt = time (fun () -> gen ~target) in
      let stmts =
        List.fold_left (fun n (gf : G.gen_func) -> n + List.length gf.G.gf_stmts) 0 fns
      in
      {
        w_jobs = acc.w_jobs + 1;
        w_stmts = acc.w_stmts + stmts;
        w_secs = acc.w_secs +. dt;
        w_job_s = dt :: acc.w_job_s;
        w_bad = (if pinned target = Some (digest fns) then acc.w_bad else target :: acc.w_bad);
      })
    { w_jobs = 0; w_stmts = 0; w_secs = 0.0; w_job_s = []; w_bad = [] }
    (job_targets ~jobs)

let untraced (t : P.t) ~domains ~decoder ~target =
  P.generate_backend ~domains t ~target ~decoder

(* The same job composed from [Generate.run] (exactly as
   [generate_backend] does it) so that each function and each decoder
   call gets its own span. *)
let traced (t : P.t) ~domains ~decoder ~stmts ~primary ~target =
  let decoder fv = Trace.span "decode" (fun () -> decoder fv) in
  let on_stmt (s : G.gen_stmt) =
    Atomic.incr stmts;
    if s.G.g_level = Vega_robust.Degrade.Primary then Atomic.incr primary
  in
  let gen i (b : P.bundle) =
    Trace.span ~rid:i "generate.run" (fun () ->
        G.run ~on_stmt t.P.prep.P.ctx b.P.tpl b.P.analysis b.P.hints ~target
          ~decoder)
  in
  let items = List.mapi (fun i b -> (i, b)) t.P.prep.P.bundles in
  if domains <= 1 then List.map (fun (i, b) -> gen i b) items
  else
    Vega_util.Par.map_ctx ~domains ~ctx:(fun _ -> ()) (fun () (i, b) -> gen i b) items

let notes_of tag w =
  Printf.sprintf "%s: %d backends, %d statements in %.3f s (%.1f stmts/s)"
    tag w.w_jobs w.w_stmts w.w_secs
    (ratio (float_of_int w.w_stmts) w.w_secs)
  :: List.map (fun t -> Printf.sprintf "%s: digest mismatch on %s" tag t) w.w_bad

let run ~seconds ~seed:_ ~trace =
  let s = setup () in
  let t = s.pipeline in
  let decoder = P.retrieval_decoder t in
  let domains = Vega_util.Par.default_domains () in
  let jobs = jobs ~seconds:(if trace then seconds /. 2.0 else seconds) in
  let gc0 = gc_mark () in
  let w = cycle ~jobs (untraced t ~domains ~decoder) in
  let gcm = gc_metrics gc0 in
  let rate = ratio (float_of_int w.w_stmts) w.w_secs in
  let base =
    {
      r_attempted = w.w_jobs;
      r_failed = List.length w.w_bad;
      r_e2e = e2e_metrics ~work_per_s:rate ~setup_s:s.setup_s w.w_job_s;
      r_layer = [];
      r_notes =
        Printf.sprintf "domains %d, targets %s" domains
          (String.concat "," (job_targets ~jobs))
        :: notes_of "untraced" w;
    }
  in
  if not trace then base
  else begin
    let stmts = Atomic.make 0 and primary = Atomic.make 0 in
    let path = Filename.concat (fresh_dir "trace") "spans.tsv" in
    let tw =
      Trace.section ~path (fun () ->
          cycle ~jobs (traced t ~domains ~decoder ~stmts ~primary))
    in
    let sm = Trace.report path in
    let trate = ratio (float_of_int tw.w_stmts) tw.w_secs in
    let n_dec = Trace.count sm "decode" in
    let dec_busy = Trace.busy sm "decode" in
    let layer =
      [
        m "gen_stmts_per_s" "1/s" rate;
        m "retrieval.calls" "count" (float_of_int n_dec);
        m "retrieval.busy_s" "s" dec_busy;
        m "retrieval.us_per_call" "us" (1e6 *. ratio dec_busy (float_of_int n_dec));
        m "retrieval.wall_share" "share" (ratio dec_busy sm.Trace.wall_s);
        m "generate.stmts" "count" (float_of_int (Atomic.get stmts));
        m "generate.self_s" "s" (Trace.self sm "generate.run");
        m "generate.primary_share" "share"
          (ratio (float_of_int (Atomic.get primary)) (float_of_int (Atomic.get stmts)));
        m "failed_share" "share"
          (ratio (float_of_int (base.r_failed + List.length tw.w_bad))
             (float_of_int (base.r_attempted + tw.w_jobs)));
      ]
      @ trace_metrics sm ~overhead_pct:((100.0 *. (ratio rate trate -. 1.0)))
      @ setup_metrics s @ gcm
    in
    {
      r_attempted = base.r_attempted + tw.w_jobs;
      r_failed = base.r_failed + List.length tw.w_bad;
      r_e2e = base.r_e2e;
      r_layer = layer;
      r_notes = base.r_notes @ notes_of "traced" tw;
    }
  end
