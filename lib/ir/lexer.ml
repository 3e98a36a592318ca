(** Lexer for the textual µJimple format.

    Hand-written; it scans [src] by index and counts lines only where
    it steps over a ['\n'].  Identifiers include dots (fully-qualified
    class names are single tokens) and the pseudo-name [<init>] is
    lexed as one identifier. *)

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | SEMI
  | COLON
  | COMMA
  | HASH
  | AT
  | DOT
  | ASSIGN  (** [=] *)
  | IDENTITY  (** [:=] *)
  | OP of string  (** comparison or arithmetic operator *)
  | EOF

exception Lex_error of int * string

(* [line] is always 1 + the number of ['\n'] in [src.[0 .. pos-1]] *)
type t = { src : string; len : int; mutable pos : int; mutable line : int }

let create src = { src; len = String.length src; pos = 0; line = 1 }
let line t = t.line
let fail t msg = raise (Lex_error (t.line, msg))

(* [src.[i]], or ['\000'] past the end *)
let char_at t i = if i < t.len then String.unsafe_get t.src i else '\000'

(* step over [n] characters known not to be ['\n'] *)
let adv t n tok =
  t.pos <- t.pos + n;
  tok

let is_ident_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> true
  | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let skip_ws t =
  let src = t.src and len = t.len in
  let i = ref t.pos and line = ref t.line and more = ref true in
  while !more && !i < len do
    match String.unsafe_get src !i with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' ->
        incr i;
        incr line
    | '/' when char_at t (!i + 1) = '/' ->
        (* up to, not over, the newline *)
        i := !i + 2;
        while !i < len && String.unsafe_get src !i <> '\n' do
          incr i
        done
    | '/' when char_at t (!i + 1) = '*' ->
        i := !i + 2;
        let closed = ref false in
        while not !closed do
          if !i >= len then begin
            t.pos <- len;
            t.line <- !line;
            fail t "unterminated comment"
          end;
          match String.unsafe_get src !i with
          | '*' when char_at t (!i + 1) = '/' ->
              i := !i + 2;
              closed := true
          | '\n' ->
              incr i;
              incr line
          | _ -> incr i
        done
    | _ -> more := false
  done;
  t.pos <- !i;
  t.line <- !line

(* the rest of a literal that holds an escape or a newline, from
   [t.pos]; [buf] holds the part before it *)
let read_string_slow t buf =
  let src = t.src and len = t.len in
  let i = ref t.pos and closed = ref false in
  while not !closed do
    if !i >= len then begin
      t.pos <- len;
      fail t "unterminated string literal"
    end;
    match String.unsafe_get src !i with
    | '"' ->
        incr i;
        closed := true
    | '\\' -> (
        match char_at t (!i + 1) with
        | ('n' | 't' | 'r' | '\\' | '"') as c ->
            Buffer.add_char buf
              (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c);
            i := !i + 2
        | '0' .. '9' ->
            (* decimal escape \ddd as produced by OCaml's %S *)
            let j = ref (!i + 1) and n = ref 0 in
            while !j <= !i + 3 && is_digit (char_at t !j) do
              n := (10 * !n) + Char.code (char_at t !j) - 48;
              incr j
            done;
            if !n > 255 then begin
              t.pos <- !i + 1;
              fail t
                (Printf.sprintf "decimal escape \\%s out of range"
                   (String.sub src (!i + 1) (!j - !i - 1)))
            end;
            Buffer.add_char buf (Char.chr !n);
            i := !j
        | c ->
            t.pos <- !i + 1;
            fail t (Printf.sprintf "unknown escape \\%c" c))
    | c ->
        if c = '\n' then t.line <- t.line + 1;
        Buffer.add_char buf c;
        incr i
  done;
  t.pos <- !i;
  Buffer.contents buf

(* opening quote consumed by the caller; a literal without escapes or
   newlines is one [String.sub] *)
let read_string t =
  let src = t.src and len = t.len in
  let start = t.pos in
  let i = ref start in
  while
    !i < len
    && match String.unsafe_get src !i with '"' | '\\' | '\n' -> false | _ -> true
  do
    incr i
  done;
  if !i < len && String.unsafe_get src !i = '"' then begin
    t.pos <- !i + 1;
    String.sub src start (!i - start)
  end
  else begin
    let buf = Buffer.create (!i - start + 16) in
    Buffer.add_substring buf src start (!i - start);
    t.pos <- !i;
    read_string_slow t buf
  end

(** End of the dotted identifier [seg(.seg)*] starting at [i], where a
    segment is a run of identifier characters.  A dot is included
    only when followed by an identifier start, so [x.foo#f] lexes the
    base as part of the dotted name — the parser splits on context. *)
let ident_end t i =
  let src = t.src and len = t.len in
  let i = ref i and more = ref true in
  while !more do
    while !i < len && is_ident_char (String.unsafe_get src !i) do
      incr i
    done;
    if char_at t !i = '.' && is_ident_start (char_at t (!i + 1)) then incr i
    else more := false
  done;
  !i

let read_ident t =
  let start = t.pos in
  let stop = ident_end t start in
  t.pos <- stop;
  String.sub t.src start (stop - start)

let read_int t ~neg =
  let src = t.src and len = t.len in
  let i = ref t.pos and n = ref 0 in
  while !i < len && is_digit (String.unsafe_get src !i) do
    let d = Char.code (String.unsafe_get src !i) - 48 in
    if !n > (max_int - d) / 10 then fail t "integer literal out of range";
    n := (10 * !n) + d;
    incr i
  done;
  t.pos <- !i;
  INT (if neg then - !n else !n)

let next t =
  skip_ws t;
  let i = t.pos in
  if i >= t.len then EOF
  else
    match String.unsafe_get t.src i with
    | '{' -> adv t 1 LBRACE
    | '}' -> adv t 1 RBRACE
    | '(' -> adv t 1 LPAREN
    | ')' -> adv t 1 RPAREN
    | '[' -> adv t 1 LBRACKET
    | ']' -> adv t 1 RBRACKET
    | ';' -> adv t 1 SEMI
    | ',' -> adv t 1 COMMA
    | '#' -> adv t 1 HASH
    | '@' -> adv t 1 AT
    | '.' -> adv t 1 DOT
    | '"' ->
        t.pos <- i + 1;
        STRING (read_string t)
    | ':' -> if char_at t (i + 1) = '=' then adv t 2 IDENTITY else adv t 1 COLON
    | '=' -> if char_at t (i + 1) = '=' then adv t 2 (OP "==") else adv t 1 ASSIGN
    | '!' ->
        if char_at t (i + 1) = '=' then adv t 2 (OP "!=")
        else begin
          t.pos <- i + 1;
          fail t "unexpected '!'"
        end
    | '<' -> (
        (* either the operator <, <=, << or the <init>/<clinit> names:
           a bracketed name needs its closing '>' *)
        let stop =
          if is_ident_start (char_at t (i + 1)) then ident_end t (i + 1) else i
        in
        if stop > i && char_at t stop = '>' then begin
          t.pos <- stop + 1;
          IDENT (String.sub t.src i (stop + 1 - i))
        end
        else
          match char_at t (i + 1) with
          | '=' -> adv t 2 (OP "<=")
          | '<' -> adv t 2 (OP "<<")
          | _ -> adv t 1 (OP "<"))
    | '>' -> (
        match char_at t (i + 1) with
        | '=' -> adv t 2 (OP ">=")
        | '>' -> adv t 2 (OP ">>")
        | _ -> adv t 1 (OP ">"))
    | '+' -> adv t 1 (OP "+")
    | '*' -> adv t 1 (OP "*")
    | '/' -> adv t 1 (OP "/")
    | '%' -> adv t 1 (OP "%")
    | '&' -> adv t 1 (OP "&")
    | '|' -> adv t 1 (OP "|")
    | '^' -> adv t 1 (OP "^")
    | '~' -> adv t 1 (OP "~")
    | '-' ->
        if is_digit (char_at t (i + 1)) then begin
          t.pos <- i + 1;
          read_int t ~neg:true
        end
        else adv t 1 (OP "-")
    | '0' .. '9' -> read_int t ~neg:false
    | c when is_ident_start c -> IDENT (read_ident t)
    | c -> fail t (Printf.sprintf "unexpected character %C" c)

let string_of_token = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT i -> Printf.sprintf "integer %d" i
  | STRING s -> Printf.sprintf "string %S" s
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | SEMI -> "';'"
  | COLON -> "':'"
  | COMMA -> "','"
  | HASH -> "'#'"
  | AT -> "'@'"
  | DOT -> "'.'"
  | ASSIGN -> "'='"
  | IDENTITY -> "':='"
  | OP s -> Printf.sprintf "operator %S" s
  | EOF -> "end of input"
