module A1 = Bigarray.Array1

type stats = {
  hits : int;
  misses : int;
  stores : int;
  invalid : int;
  errors : int;
}

type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  invalid : int Atomic.t;
  errors : int Atomic.t;
}

(* Version 2: the payload is the triangular dense layout (m·n(n+1)/2
   cells); version-1 files held the square m·n² copy. *)
let format_version = 2

(* 8-byte magic: "HRTBL" + zero-padded format version.  Bumping
   [format_version] changes these bytes, so every older file fails the
   magic check and reloads as a miss. *)
let magic = Printf.sprintf "HRTBL%03d" format_version
let header_bytes = 64
let endian_byte = if Sys.big_endian then '\002' else '\001'

let dir t = t.dir

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    stores = Atomic.get t.stores;
    invalid = Atomic.get t.invalid;
    errors = Atomic.get t.errors;
  }

(* ------------------------------------------------------------------ *)
(* Handles.  Memoized per directory so every producer/consumer of one
   cache dir (Problem.make, Case.problem, hrserve telemetry) shares a
   single stats block. *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 4
let registry_mu = Mutex.create ()

let rec mkdir_p dir =
  if dir = "" || dir = "/" || dir = "." || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let of_dir dir =
  Mutex.lock registry_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mu)
    (fun () ->
      match Hashtbl.find_opt registry dir with
      | Some t -> t
      | None ->
          mkdir_p dir;
          let t =
            {
              dir;
              hits = Atomic.make 0;
              misses = Atomic.make 0;
              stores = Atomic.make 0;
              invalid = Atomic.make 0;
              errors = Atomic.make 0;
            }
          in
          Hashtbl.add registry dir t;
          t)

(* ------------------------------------------------------------------ *)
(* Keys and paths. *)

let valid_key key =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
    | _ -> false
  in
  String.length key > 0
  && String.length key <= 128
  && key.[0] <> '.'
  && String.for_all ok_char key

let check_key key =
  if not (valid_key key) then
    invalid_arg (Printf.sprintf "Table_cache: invalid key %S" key)

let file t ~key =
  check_key key;
  Filename.concat t.dir (key ^ ".tbl")

(* ------------------------------------------------------------------ *)
(* Load. *)

let width_bytes width_bits = width_bits / 8

(* Header validation happens on an open channel; mapping reopens the
   file.  A concurrent rename between the two reads a fully-written
   replacement of the same key — same content, still safe. *)
let validate_header ic ~cells =
  match really_input_string ic header_bytes with
  | exception End_of_file -> None
  | hdr ->
      if String.sub hdr 0 8 <> magic then None
      else if hdr.[9] <> endian_byte then None
      else
        let width_bits = Char.code hdr.[8] in
        let fcells = Int64.to_int (String.get_int64_le hdr 16) in
        let digest = String.sub hdr 24 16 in
        if fcells <> cells then None
        else if width_bits <> 16 && width_bits <> 32 && width_bits <> 64 then None
        else
          let payload = cells * width_bytes width_bits in
          if in_channel_length ic <> header_bytes + payload then None
          else if Digest.channel ic payload <> digest then None
          else Some width_bits

let map_table path ~width_bits ~cells =
  if cells = 0 then
    (* mmap of a zero-length range is invalid; an empty table needs no
       backing file bytes anyway. *)
    Some (Flat_table.create ~max_value:(if width_bits = 16 then 0 else max_int) 0)
  else
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let pos = Int64.of_int header_bytes in
        let dims = [| cells |] in
        let a1 kind =
          Bigarray.array1_of_genarray
            (Unix.map_file fd ~pos kind Bigarray.c_layout false dims)
        in
        match width_bits with
        | 16 -> Some (Flat_table.I16 (a1 Bigarray.int16_unsigned))
        | 32 -> Some (Flat_table.I32 (a1 Bigarray.int32))
        | 64 -> Some (Flat_table.I64 (a1 Bigarray.int64))
        | _ -> None)

let load t ~key ~cells =
  let path = file t ~key in
  if cells < 0 then invalid_arg "Table_cache.load: negative cells";
  match open_in_bin path with
  | exception Sys_error _ ->
      (* absent: a plain miss, not a corrupt entry *)
      Atomic.incr t.misses;
      None
  | ic -> (
      let verdict =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> try validate_header ic ~cells with Sys_error _ -> None)
      in
      match verdict with
      | None ->
          Atomic.incr t.invalid;
          Atomic.incr t.misses;
          None
      | Some width_bits -> (
          match map_table path ~width_bits ~cells with
          | exception (Unix.Unix_error _ | Sys_error _) ->
              Atomic.incr t.errors;
              Atomic.incr t.misses;
              None
          | None ->
              Atomic.incr t.invalid;
              Atomic.incr t.misses;
              None
          | Some table ->
              Atomic.incr t.hits;
              Some table))

(* ------------------------------------------------------------------ *)
(* Store. *)

let tmp_counter = Atomic.make 0

(* Payload cells are written in native byte order (the header's endian
   byte guards cross-host reuse) so a later load can mmap the bytes
   back without any conversion pass. *)
let write_payload oc table =
  let cells = Flat_table.length table in
  let chunk = 1 lsl 16 in
  let wb = width_bytes (Flat_table.width_bits table) in
  let buf = Bytes.create (chunk * wb) in
  let write_chunk fill lo hi =
    let len = hi - lo + 1 in
    for k = 0 to len - 1 do
      fill k (lo + k)
    done;
    output_bytes oc (if len * wb = Bytes.length buf then buf else Bytes.sub buf 0 (len * wb))
  in
  let rec go lo =
    if lo < cells then begin
      let hi = min (cells - 1) (lo + chunk - 1) in
      (match table with
      | Flat_table.I16 a -> write_chunk (fun k i -> Bytes.set_uint16_ne buf (k * 2) (A1.get a i)) lo hi
      | Flat_table.I32 a -> write_chunk (fun k i -> Bytes.set_int32_ne buf (k * 4) (A1.get a i)) lo hi
      | Flat_table.I64 a -> write_chunk (fun k i -> Bytes.set_int64_ne buf (k * 8) (A1.get a i)) lo hi);
      go (hi + 1)
    end
  in
  go 0

let header ~width_bits ~cells ~digest =
  let hdr = Bytes.make header_bytes '\000' in
  Bytes.blit_string magic 0 hdr 0 8;
  Bytes.set hdr 8 (Char.chr width_bits);
  Bytes.set hdr 9 endian_byte;
  Bytes.set_int64_le hdr 16 (Int64.of_int cells);
  Bytes.blit_string digest 0 hdr 24 16;
  hdr

let write_tmp tmp table =
  let cells = Flat_table.length table in
  let width_bits = Flat_table.width_bits table in
  let payload = cells * width_bytes width_bits in
  (* Pass 1: placeholder header + payload. *)
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (String.make header_bytes '\000');
      write_payload oc table);
  (* Pass 2: digest the payload as written. *)
  let digest =
    let ic = open_in_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        seek_in ic header_bytes;
        Digest.channel ic payload)
  in
  (* Pass 3: patch the real header in place. *)
  let hdr = header ~width_bits ~cells ~digest in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let rec write_all off =
        if off < header_bytes then
          write_all (off + Unix.write fd hdr off (header_bytes - off))
      in
      write_all 0)

let store t ~key table =
  let final = file t ~key in
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".%s.%d.%d.tmp" key (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  match
    write_tmp tmp table;
    Unix.rename tmp final
  with
  | () -> Atomic.incr t.stores
  | exception (Sys_error _ | Unix.Unix_error _ | End_of_file) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Atomic.incr t.errors
