(* Content-addressed result cache in front of the decoder.

   A cache entry answers "this exact model, these exact description
   files, this interface function" — the key is the triple
   (pipeline fingerprint, descfile hash, function name), and the entry
   file is named by the FNV-1a checksum of that triple, so a different
   model or an edited target description can never alias a stale
   answer.

   Entries are two checksummed Wire lines: a metadata line restating
   the full triple (the checksum in the filename is not trusted at read
   time) and the encoded Done reply itself. Both lines carry Wire's
   own checksum prefix, so any flipped byte — metadata or payload —
   fails decode; a corrupt entry is evicted, recorded as a
   [Cache_corruption] fault, and the request falls through to
   generation as if it had never been cached. Writes go through a tmp
   file + rename, so a torn write leaves no half-entry behind. *)

module Wire = Vega_robust.Wire
module Fault = Vega_robust.Fault
module Report = Vega_robust.Report
module Proto = Vega_serve.Proto
module Vfs = Vega_tdlang.Vfs

let entry_version = 1
let entry_ext = ".vcache"

type t = {
  dir : string;
  fingerprint : string;
  desc_hash : string;
  report : Report.t option;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable puts : int;
  mutable evictions : int;
}

type stats = {
  c_hits : int;
  c_misses : int;
  c_puts : int;
  c_evictions : int;
  c_entries : int;
}

(* The request key: the exact triple the ring hashes and the cache
   addresses by. NUL-separated so no field boundary can be forged by
   a crafted function name. *)
let request_key ~fingerprint ~desc_hash ~fname =
  String.concat "\x00" [ fingerprint; desc_hash; fname ]

(* Hash of a target's description files: every (path, contents) pair
   under the target's descfile dirs, path-sorted. Editing, adding or
   removing any descfile changes the hash — and therefore the cache
   address and the shard owner. *)
let desc_hash_of_vfs vfs ~target =
  let files =
    List.sort compare (Vfs.files_under_dirs vfs (Vfs.tgtdirs target))
  in
  Wire.checksum
    (String.concat "\x00"
       (List.concat_map (fun (path, contents) -> [ path; contents ]) files))

let create ?report ~dir ~fingerprint ~desc_hash () =
  Vega_util.Fs.mkdir_p dir;
  {
    dir;
    fingerprint;
    desc_hash;
    report;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    puts = 0;
    evictions = 0;
  }

let dir t = t.dir

let key t ~fname =
  Wire.checksum
    (request_key ~fingerprint:t.fingerprint ~desc_hash:t.desc_hash ~fname)

let path t ~fname = Filename.concat t.dir (key t ~fname ^ entry_ext)

let evict_locked t ~fname ~detail =
  let p = path t ~fname in
  (try Sys.remove p with Sys_error _ -> ());
  t.evictions <- t.evictions + 1;
  Option.iter
    (fun r ->
      Report.record r ~stage:"cache"
        (Fault.Cache_corruption { key = key t ~fname; detail }))
    t.report

(* Only clean primary results are worth remembering: degraded output
   would pin a low-confidence answer past the fault that caused it, and
   rejections/failures are transient by definition. *)
let cacheable = function
  | Proto.Done { r_degraded; _ } -> r_degraded = 0
  | Proto.Rejected _ | Proto.Failed _ -> false

let put t ~fname reply =
  if not (cacheable reply) then false
  else
    Mutex.protect t.lock (fun () ->
        let meta =
          Wire.encode_line
            [
              "vcache";
              string_of_int entry_version;
              t.fingerprint;
              t.desc_hash;
              fname;
            ]
        in
        let body = Proto.encode_reply reply in
        let p = path t ~fname in
        let tmp = p ^ ".tmp" in
        match
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc (meta ^ "\n" ^ body ^ "\n"))
        with
        | () ->
            Sys.rename tmp p;
            t.puts <- t.puts + 1;
            true
        | exception Sys_error _ ->
            (try Sys.remove tmp with Sys_error _ -> ());
            false)

let get t ~fname =
  Mutex.protect t.lock (fun () ->
      let p = path t ~fname in
      let miss () =
        t.misses <- t.misses + 1;
        None
      in
      let corrupt detail =
        evict_locked t ~fname ~detail;
        miss ()
      in
      if not (Sys.file_exists p) then miss ()
      else
        match In_channel.with_open_bin p In_channel.input_all with
        | exception Sys_error _ -> corrupt "unreadable entry"
        | contents -> (
            match String.split_on_char '\n' contents with
            | [ meta; body; "" ] -> (
                match Wire.decode_line meta with
                | Some [ "vcache"; v; fp; dh; fn ]
                  when v = string_of_int entry_version
                       && fp = t.fingerprint && dh = t.desc_hash
                       && fn = fname -> (
                    match Proto.decode_reply body with
                    | Proto.Decoded (Proto.Done _ as reply) ->
                        t.hits <- t.hits + 1;
                        Some reply
                    | Proto.Decoded _ | Proto.Version_skew _ ->
                        corrupt "entry payload is not a done reply"
                    | Proto.Malformed -> corrupt "payload checksum failure")
                | Some _ -> corrupt "metadata names a different key"
                | None -> corrupt "metadata checksum failure")
            | _ -> corrupt "bad entry framing"))

let stats t =
  Mutex.protect t.lock (fun () ->
      let entries =
        match Sys.readdir t.dir with
        | files ->
            Array.fold_left
              (fun n f ->
                if Filename.check_suffix f entry_ext then n + 1 else n)
              0 files
        | exception Sys_error _ -> 0
      in
      {
        c_hits = t.hits;
        c_misses = t.misses;
        c_puts = t.puts;
        c_evictions = t.evictions;
        c_entries = entries;
      })
