(* Shared benchmark plumbing: clock, statistics, set-up, scratch
   directories, process measurements and the result record every
   workload returns. *)

module P = Vega.Pipeline

let now = Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- statistics ---- *)

(* Linear interpolation between closest ranks (rank = q * (n - 1)). *)
let quantile q xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let r = q *. float_of_int (n - 1) in
      let i = truncate r in
      let f = r -. float_of_int i in
      if i + 1 >= n || f = 0.0 then a.(i)
      else if a.(i + 1) = infinity then infinity
      else a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- results ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  r_attempted : int;
  r_failed : int;  (** wrong, failed or refused operations *)
  r_e2e : metric list;  (** every end-to-end metric, untraced *)
  r_layer : metric list;  (** every per-layer metric (traced runs) *)
  r_notes : string list;  (** human-readable lines printed before the JSON *)
}

(* ---- process measurements ---- *)

(* Peak resident set (VmHWM) in MB; the GC's top heap on systems without
   /proc. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  Some (float_of_int kb /. 1024.0))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

type gc_mark = { g_minor : float; g_major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { g_minor = s.Gc.minor_words; g_major = s.Gc.major_collections }

let gc_metrics since =
  let s = Gc.quick_stat () in
  [
    m "gc.minor_mwords" "Mwords" ((s.Gc.minor_words -. since.g_minor) /. 1e6);
    m "gc.major_collections" "count"
      (float_of_int (s.Gc.major_collections - since.g_major));
    m "gc.top_heap_mb" "MB"
      (float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  ]

(* Every timed section starts from the same heap state: a compacted
   major heap and an empty minor heap. *)
let settle_heap () = Gc.compact ()

(* ---- scratch directories ---- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch_root = ".perfbench_run"

(* A fresh directory under the checkout's scratch root; every run dir,
   journal and cache of one benchmark process lives below it and is
   removed at exit. *)
let run_base =
  lazy
    (let base =
       Filename.concat scratch_root (Printf.sprintf "p%d" (Unix.getpid ()))
     in
     rm_rf base;
     (try Unix.mkdir scratch_root 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     Unix.mkdir base 0o755;
     at_exit (fun () ->
         rm_rf base;
         try Unix.rmdir scratch_root with Unix.Unix_error _ -> ());
     base)

let fresh_seq = ref 0

let fresh_dir tag =
  incr fresh_seq;
  let d =
    Filename.concat (Lazy.force run_base) (Printf.sprintf "%s-%d" tag !fresh_seq)
  in
  Unix.mkdir d 0o755;
  d

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* ---- set-up ---- *)

let retrieval_config =
  {
    P.default_config with
    train_cfg = { Vega.Codebe.tiny_train_config with epochs = 0 };
  }

type setup = {
  pipeline : P.t;
  setup_s : float;  (** median whole set-up over [setup_reps] *)
  prepare_s : float;  (** median [Pipeline.prepare] *)
  fit_s : float;  (** median [Pipeline.train] (retrieval index, no epochs) *)
}

let setup_reps = 3

(* Corpus + description files ([Pipeline.prepare]) and the retrieval
   fit, built [setup_reps] times from scratch; the medians are the
   reported set-up cost and the last pipeline is used. *)
let setup () =
  let runs =
    List.init setup_reps (fun _ ->
        settle_heap ();
        let prep, dp = time (fun () -> P.prepare ()) in
        let t, df = time (fun () -> P.train retrieval_config prep) in
        (t, dp, df))
  in
  let pick f = median (List.map f runs) in
  let t, _, _ = List.nth runs (setup_reps - 1) in
  {
    pipeline = t;
    setup_s = pick (fun (_, dp, df) -> dp +. df);
    prepare_s = pick (fun (_, dp, _) -> dp);
    fit_s = pick (fun (_, _, df) -> df);
  }

let setup_metrics s =
  [ m "setup.prepare_s" "s" s.prepare_s; m "setup.fit_s" "s" s.fit_s ]

let profile name =
  List.find
    (fun (p : Vega_target.Profile.t) -> p.Vega_target.Profile.name = name)
    Vega_target.Registry.held_out

(* ---- measured windows ---- *)

(* Keep starting units of work while the window is open and the next
   unit (estimated by the previous one) would not overrun it by more
   than a quarter; at least one unit always runs. *)
let within_window ~t0 ~seconds ~last =
  let elapsed = now () -. t0 in
  elapsed +. last <= 1.25 *. seconds

(* ---- per-function latency from decoder-call timestamps ----

   The decoder receives each statement's feature vector, which names its
   interface function. The first call for a function on a domain marks
   the start of that function; the next function's first call on the
   same domain (or the end of the job) marks its end. This times every
   function of a whole-backend job from outside the library, with one
   clock read per decoder call. *)
module Fn_clock = struct
  type lane = { mutable cur : string; mutable since : float; mutable done_ : float list }

  type t = { lanes : (int, lane) Hashtbl.t; lock : Mutex.t }

  let create () = { lanes = Hashtbl.create 4; lock = Mutex.create () }

  let lane t =
    let d = (Domain.self () :> int) in
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.lanes d with
        | Some l -> l
        | None ->
            let l = { cur = ""; since = 0.0; done_ = [] } in
            Hashtbl.replace t.lanes d l;
            l)

  let observe t fname =
    let l = lane t in
    if l.cur <> fname then begin
      let at = now () in
      if l.cur <> "" then l.done_ <- (at -. l.since) :: l.done_;
      l.cur <- fname;
      l.since <- at
    end

  (* Close every open lane at [at] and return all function latencies
     (seconds), then reset. *)
  let finish t ~at =
    Mutex.protect t.lock (fun () ->
        let all =
          Hashtbl.fold
            (fun _ l acc ->
              let d = if l.cur <> "" then (at -. l.since) :: l.done_ else l.done_ in
              l.cur <- "";
              l.done_ <- [];
              List.rev_append d acc)
            t.lanes []
        in
        all)

  let wrap t (decoder : Vega.Generate.decoder) : Vega.Generate.decoder =
   fun fv ->
    observe t fv.Vega.Featrep.fname;
    decoder fv
end

(* The end-to-end metrics, from the workload's rate and its unit
   latencies in seconds. *)
let e2e_metrics ~work_per_s ~setup_s lat_s =
  [
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "work_per_s" "1/s" work_per_s;
    m "latency_p50_ms" "ms" (1000.0 *. median lat_s);
    m "latency_p75_ms" "ms" (1000.0 *. quantile 0.75 lat_s);
  ]


(* The traced section's totals and the measured tracing overhead
   ((traced - untraced) / untraced of the workload's own rate, in %). *)
let trace_metrics (sm : Trace.summary) ~overhead_pct =
  [
    m "trace.wall_s" "s" sm.Trace.wall_s;
    m "trace.unattributed_share" "share" (ratio sm.Trace.unattributed_s sm.Trace.wall_s);
    m "trace.spans" "count" (float_of_int (List.length sm.Trace.spans - 1));
    m "trace.span_ns" "ns" (Trace.span_cost_ns ());
    m "trace.overhead_pct" "%" overhead_pct;
  ]
