//! Offline stand-in for `serde_derive`.
//!
//! The build environment has no crates.io access, so this proc-macro crate
//! is hand-rolled on top of `proc_macro` alone (no `syn`/`quote`). It
//! implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for exactly
//! the shapes present in this workspace:
//!
//! - named-field structs (with the `#[serde(...)]` attributes listed below)
//! - newtype structs (`struct Priority(pub u16)`) — transparent
//! - enums with unit variants (serialized as strings), newtype variants and
//!   struct variants (single-key objects), matching real serde's externally
//!   tagged JSON convention
//! - internally tagged enums (`tag = "..."`) of unit and struct variants:
//!   one object, the variant name under the tag key beside its fields
//! - untagged enums of newtype variants: the inner value as is; reading
//!   takes the first variant that accepts it
//!
//! Container attributes: `rename_all = "PascalCase"` (struct fields) or
//! `"snake_case"` (enum variants), `deny_unknown_fields`, `tag = "..."`
//! (on a struct: the struct's name, or its `rename`, under that key),
//! `rename = "..."`, `untagged`.
//! Field attributes (struct and struct-variant fields): `rename = "..."`,
//! `default`, `default = "path"`, `skip_serializing_if = "path"`, `flatten`
//! (the field's object members are spliced into the parent; `None`
//! splices nothing).
//!
//! A missing field with no `default` reads as `None` when its type is
//! written `Option<...>` (as real serde does) and is a "missing field"
//! error otherwise — also for a float, which reads an explicit `null` as
//! NaN.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------
// Input model
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct FieldAttrs {
    rename: Option<String>,
    default: Option<Option<String>>, // None = no default; Some(None) = Default::default; Some(Some(p)) = path
    skip_serializing_if: Option<String>,
    flatten: bool,
}

#[derive(Debug)]
struct Field {
    ident: String,
    attrs: FieldAttrs,
    /// The field's type is written `Option<...>`.
    optional: bool,
}

impl Field {
    /// The key this field is written under.
    fn wire(&self, pascal_case: bool) -> String {
        match &self.attrs.rename {
            Some(r) => r.clone(),
            None if pascal_case => pascal(&self.ident),
            None => self.ident.clone(),
        }
    }
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    ident: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum Shape {
    Named(Vec<Field>),
    Newtype,
    Unit,
    Enum(Vec<Variant>),
}

#[derive(Debug, Default)]
struct ContainerAttrs {
    rename_all: Option<String>,
    deny_unknown_fields: bool,
    tag: Option<String>,
    rename: Option<String>,
    untagged: bool,
}

#[derive(Debug)]
struct Input {
    name: String,
    attrs: ContainerAttrs,
    shape: Shape,
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Collects the `key`, `key = "value"` items inside a `#[serde(...)]` group.
fn parse_serde_items(group: &proc_macro::Group) -> Vec<(String, Option<String>)> {
    let mut items = Vec::new();
    let mut tokens = group.stream().into_iter().peekable();
    while let Some(t) = tokens.next() {
        let TokenTree::Ident(key) = t else { continue };
        let key = key.to_string();
        let mut value = None;
        if let Some(TokenTree::Punct(p)) = tokens.peek() {
            if p.as_char() == '=' {
                tokens.next();
                if let Some(TokenTree::Literal(lit)) = tokens.next() {
                    let s = lit.to_string();
                    value = Some(s.trim_matches('"').to_string());
                }
            }
        }
        items.push((key, value));
        // Skip the separating comma, if any.
        if let Some(TokenTree::Punct(p)) = tokens.peek() {
            if p.as_char() == ',' {
                tokens.next();
            }
        }
    }
    items
}

/// Consumes a leading run of `#[...]` attributes, returning any serde items.
fn take_attrs(
    tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>,
) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.next() {
                    let mut inner = g.stream().into_iter();
                    if let Some(TokenTree::Ident(name)) = inner.next() {
                        if name.to_string() == "serde" {
                            if let Some(TokenTree::Group(args)) = inner.next() {
                                out.extend(parse_serde_items(&args));
                            }
                        }
                    }
                }
            }
            _ => return out,
        }
    }
}

fn field_attrs_from(items: Vec<(String, Option<String>)>) -> FieldAttrs {
    let mut fa = FieldAttrs::default();
    for (k, v) in items {
        match k.as_str() {
            "rename" => fa.rename = v,
            "default" => fa.default = Some(v),
            "skip_serializing_if" => fa.skip_serializing_if = v,
            "flatten" => fa.flatten = true,
            _ => {}
        }
    }
    fa
}

/// Skips a type expression up to a top-level `,` (or end of stream),
/// balancing `<`/`>` so generic arguments don't end the field early.
/// Returns whether the type is written `Option<...>`.
fn skip_type(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> bool {
    let optional = matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "Option");
    let mut depth = 0i32;
    while let Some(t) = tokens.peek() {
        if let TokenTree::Punct(p) = t {
            let c = p.as_char();
            if c == ',' && depth == 0 {
                tokens.next();
                return optional;
            }
            if c == '<' {
                depth += 1;
            }
            if c == '>' {
                depth -= 1;
            }
        }
        tokens.next();
    }
    optional
}

/// Parses the named fields inside a struct/struct-variant brace group.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut tokens = group.stream().into_iter().peekable();
    loop {
        let items = take_attrs(&mut tokens);
        // Skip visibility.
        while let Some(TokenTree::Ident(id)) = tokens.peek() {
            if id.to_string() == "pub" {
                tokens.next();
                // Optional `(crate)` etc.
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            } else {
                break;
            }
        }
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        // Consume the `:`.
        let Some(TokenTree::Punct(_)) = tokens.next() else {
            break;
        };
        let optional = skip_type(&mut tokens);
        fields.push(Field {
            ident: name.to_string(),
            attrs: field_attrs_from(items),
            optional,
        });
    }
    fields
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = group.stream().into_iter().peekable();
    loop {
        let _ = take_attrs(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        let mut shape = VariantShape::Unit;
        if let Some(TokenTree::Group(g)) = tokens.peek() {
            match g.delimiter() {
                Delimiter::Parenthesis => shape = VariantShape::Newtype,
                Delimiter::Brace => shape = VariantShape::Struct(parse_named_fields(g)),
                _ => {}
            }
            tokens.next();
        }
        variants.push(Variant {
            ident: name.to_string(),
            shape,
        });
        // Skip the separating comma.
        if let Some(TokenTree::Punct(p)) = tokens.peek() {
            if p.as_char() == ',' {
                tokens.next();
            }
        }
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let mut tokens = input.into_iter().peekable();
    let items = take_attrs(&mut tokens);
    let mut attrs = ContainerAttrs::default();
    for (k, v) in items {
        match k.as_str() {
            "rename_all" => attrs.rename_all = v,
            "deny_unknown_fields" => attrs.deny_unknown_fields = true,
            "tag" => attrs.tag = v,
            "rename" => attrs.rename = v,
            "untagged" => attrs.untagged = true,
            _ => {}
        }
    }
    // Skip visibility and find `struct` / `enum`.
    let mut is_enum = false;
    loop {
        match tokens.next() {
            Some(TokenTree::Ident(id)) => match id.to_string().as_str() {
                "struct" => break,
                "enum" => {
                    is_enum = true;
                    break;
                }
                _ => {}
            },
            Some(_) => {}
            None => panic!("serde_derive shim: no struct/enum keyword found"),
        }
    }
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        panic!("serde_derive shim: missing type name");
    };
    let name = name.to_string();
    // Body: the next brace/paren group (no generics in this workspace).
    let shape = loop {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                break if is_enum {
                    Shape::Enum(parse_variants(&g))
                } else {
                    Shape::Named(parse_named_fields(&g))
                };
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = g
                    .stream()
                    .into_iter()
                    .filter(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ','))
                    .count();
                assert!(
                    n == 0,
                    "serde_derive shim: multi-field tuple structs are unsupported"
                );
                break Shape::Newtype;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => break Shape::Unit,
            Some(_) => {}
            None => break Shape::Unit,
        }
    };
    Input { name, attrs, shape }
}

// ---------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------

/// `snake_case` → `PascalCase` (field renaming).
fn pascal(s: &str) -> String {
    let mut out = String::new();
    for part in s.split('_') {
        let mut ch = part.chars();
        if let Some(c) = ch.next() {
            out.extend(c.to_uppercase());
            out.push_str(ch.as_str());
        }
    }
    out
}

/// `PascalCase` → `snake_case` (variant renaming).
fn snake(s: &str) -> String {
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

impl Input {
    fn pascal_fields(&self) -> bool {
        self.attrs.rename_all.as_deref() == Some("PascalCase")
    }

    /// The name a variant is written under.
    fn variant_wire(&self, v: &Variant) -> String {
        match self.attrs.rename_all.as_deref() {
            Some("snake_case") => snake(&v.ident),
            _ => v.ident.clone(),
        }
    }
}

/// Statements pushing `fields` onto `fields: Vec<(String, Value)>`, each
/// field's value read from the expression `access(ident)`.
fn push_fields(fields: &[Field], pascal_case: bool, access: impl Fn(&str) -> String) -> String {
    let mut s = String::new();
    for f in fields {
        let value = format!("serde::Serialize::to_value({})", access(&f.ident));
        let push = if f.attrs.flatten {
            format!(
                "match {value} {{ serde::Value::Object(o) => fields.extend(o), serde::Value::Null => {{}}, other => panic!(\"flattened field `{}` is not an object: {{other:?}}\") }}",
                f.ident
            )
        } else {
            format!("fields.push((\"{}\".to_string(), {value}));", f.wire(pascal_case))
        };
        match &f.attrs.skip_serializing_if {
            Some(pred) => s.push_str(&format!("if !{pred}({}) {{ {push} }}\n", access(&f.ident))),
            None => {
                s.push_str(&push);
                s.push('\n');
            }
        }
    }
    s
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::Newtype => "serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Unit => "serde::Value::Null".to_string(),
        Shape::Named(fields) => {
            let mut s = String::from(
                "{ let mut fields: Vec<(String, serde::Value)> = Vec::new();\n",
            );
            if let Some(tag) = &input.attrs.tag {
                let value = input.attrs.rename.as_deref().unwrap_or(name);
                s.push_str(&format!(
                    "fields.push((\"{tag}\".to_string(), serde::Value::Str(\"{value}\".to_string())));\n"
                ));
            }
            s.push_str(&push_fields(fields, input.pascal_fields(), |id| format!("&self.{id}")));
            s.push_str("serde::Value::Object(fields) }");
            s
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.ident;
                let wire = input.variant_wire(v);
                let arm = match (&v.shape, &input.attrs.tag, input.attrs.untagged) {
                    (VariantShape::Newtype, None, true) => {
                        format!("{name}::{vn}(inner) => serde::Serialize::to_value(inner),\n")
                    }
                    (_, _, true) => panic!("serde_derive shim: untagged enums take newtype variants only"),
                    (VariantShape::Unit, None, _) => {
                        format!("{name}::{vn} => serde::Value::Str(\"{wire}\".to_string()),\n")
                    }
                    (VariantShape::Newtype, None, _) => format!(
                        "{name}::{vn}(inner) => serde::Value::Object(vec![(\"{wire}\".to_string(), serde::Serialize::to_value(inner))]),\n"
                    ),
                    (VariantShape::Struct(fs), None, _) => {
                        let binds: Vec<&str> = fs.iter().map(|f| f.ident.as_str()).collect();
                        format!(
                            "{name}::{vn} {{ {} }} => {{ let mut fields: Vec<(String, serde::Value)> = Vec::new();\n{}serde::Value::Object(vec![(\"{wire}\".to_string(), serde::Value::Object(fields))]) }}\n",
                            binds.join(", "),
                            push_fields(fs, false, str::to_string)
                        )
                    }
                    (VariantShape::Newtype, Some(_), _) => {
                        panic!("serde_derive shim: internally tagged newtype variants are unsupported")
                    }
                    (VariantShape::Unit, Some(tag), _) => format!(
                        "{name}::{vn} => serde::Value::Object(vec![(\"{tag}\".to_string(), serde::Value::Str(\"{wire}\".to_string()))]),\n"
                    ),
                    (VariantShape::Struct(fs), Some(tag), _) => {
                        let binds: Vec<&str> = fs.iter().map(|f| f.ident.as_str()).collect();
                        format!(
                            "{name}::{vn} {{ {} }} => {{ let mut fields: Vec<(String, serde::Value)> = vec![(\"{tag}\".to_string(), serde::Value::Str(\"{wire}\".to_string()))];\n{}serde::Value::Object(fields) }}\n",
                            binds.join(", "),
                            push_fields(fs, false, str::to_string)
                        )
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n fn to_value(&self) -> serde::Value {{ {body} }}\n}}\n"
    )
}

/// One `ident: value,` initialiser reading `f` out of the object `obj`.
fn gen_field_read(f: &Field, wire: &str, obj: &str) -> String {
    if f.attrs.flatten {
        return format!("{}: serde::Deserialize::from_value({obj})?,\n", f.ident);
    }
    let missing = match &f.attrs.default {
        Some(None) => "Default::default()".to_string(),
        Some(Some(path)) => format!("{path}()"),
        None if f.optional => "None".to_string(),
        None => format!("return Err(serde::DeError::custom(\"missing field `{wire}`\"))"),
    };
    format!(
        "{id}: match {obj}.get_field(\"{wire}\") {{ Some(v) => serde::Deserialize::from_value(v)?, None => {missing} }},\n",
        id = f.ident
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::Newtype => {
            format!("Ok({name}(serde::Deserialize::from_value(__v)?))")
        }
        Shape::Unit => format!("Ok({name})"),
        Shape::Named(fields) => {
            let mut s = format!(
                "let __obj = __v.as_object().ok_or_else(|| serde::DeError::custom(\"expected object for {name}\"))?;\n"
            );
            if let Some(tag) = &input.attrs.tag {
                let value = input.attrs.rename.as_deref().unwrap_or(name);
                s.push_str(&format!(
                    "if __v.get_field(\"{tag}\").and_then(serde::Value::as_str) != Some(\"{value}\") {{ return Err(serde::DeError::custom(\"expected `{tag}` = `{value}` for {name}\")); }}\n"
                ));
            }
            if input.attrs.deny_unknown_fields {
                let wires: Vec<String> = fields
                    .iter()
                    .map(|f| format!("\"{}\"", f.wire(input.pascal_fields())))
                    .collect();
                s.push_str(&format!(
                    "for (k, _) in __obj.iter() {{ if ![{}].contains(&k.as_str()) {{ return Err(serde::DeError::custom(format!(\"unknown field `{{}}` in {name}\", k))); }} }}\n",
                    wires.join(", ")
                ));
            }
            s.push_str(&format!("Ok({name} {{\n"));
            for f in fields {
                s.push_str(&gen_field_read(f, &f.wire(input.pascal_fields()), "__v"));
            }
            s.push_str("})");
            s
        }
        Shape::Enum(variants) if input.attrs.untagged => {
            let tries: String = variants
                .iter()
                .map(|v| {
                    format!(
                        "if let Ok(inner) = serde::Deserialize::from_value(__v) {{ return Ok({name}::{}(inner)); }}\n",
                        v.ident
                    )
                })
                .collect();
            format!(
                "{tries}Err(serde::DeError::custom(\"data did not match any variant of untagged enum {name}\"))"
            )
        }
        Shape::Enum(variants) => {
            let struct_reads = |fs: &[Field], obj: &str| -> String {
                fs.iter().map(|f| gen_field_read(f, &f.wire(false), obj)).collect()
            };
            let mut unit_arms = String::new();
            let mut keyed_arms = String::new();
            for v in variants {
                let vn = &v.ident;
                let wire = input.variant_wire(v);
                match &v.shape {
                    VariantShape::Unit => unit_arms.push_str(&format!(
                        "\"{wire}\" => return Ok({name}::{vn}),\n"
                    )),
                    VariantShape::Newtype => keyed_arms.push_str(&format!(
                        "\"{wire}\" => return Ok({name}::{vn}(serde::Deserialize::from_value(__inner)?)),\n"
                    )),
                    VariantShape::Struct(fs) => {
                        let obj = if input.attrs.tag.is_some() { "__v" } else { "__inner" };
                        keyed_arms.push_str(&format!(
                            "\"{wire}\" => return Ok({name}::{vn} {{ {} }}),\n",
                            struct_reads(fs, obj)
                        ));
                    }
                }
            }
            let unknown = format!(
                "other => Err(serde::DeError::custom(format!(\"unknown variant `{{}}` of {name}\", other)))"
            );
            match &input.attrs.tag {
                Some(tag) => format!(
                    "let __tag = __v.get_field(\"{tag}\").and_then(serde::Value::as_str).ok_or_else(|| serde::DeError::custom(\"missing tag `{tag}` for {name}\"))?;\n\
                     match __tag {{ {unit_arms} {keyed_arms} {unknown} }}"
                ),
                None => format!(
                    "match __v {{\n\
                     serde::Value::Str(s) => match s.as_str() {{ {unit_arms} {unknown} }},\n\
                     serde::Value::Object(o) if o.len() == 1 => {{\n\
                       let (__tag, __inner) = &o[0];\n\
                       match __tag.as_str() {{ {keyed_arms} {unknown} }}\n\
                     }}\n\
                     _ => Err(serde::DeError::custom(\"expected string or single-key object for enum {name}\")),\n\
                     }}"
                ),
            }
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n fn from_value(__v: &serde::Value) -> Result<Self, serde::DeError> {{ {body} }}\n}}\n"
    )
}

/// Derives the shim's `serde::Serialize` (a `to_value` tree builder).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed).parse().expect("generated Serialize impl parses")
}

/// Derives the shim's `serde::Deserialize` (a `from_value` tree reader).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed).parse().expect("generated Deserialize impl parses")
}
