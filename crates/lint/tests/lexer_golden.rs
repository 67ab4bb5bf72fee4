//! Golden-file tests for the token lexer: each `tests/golden/*.rs` fixture
//! is lexed and its [`taglets_lint::lexer::dump`] rendering compared against
//! the checked-in `*.tokens` sibling.
//!
//! Regenerate the expectations after an intentional lexer change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p taglets-lint --test lexer_golden
//! ```

use std::fs;
use std::path::PathBuf;

use taglets_lint::lexer;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

#[test]
fn fixtures_lex_to_their_golden_token_streams() {
    let dir = golden_dir();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("golden fixture directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 4,
        "expected the golden fixture set, found {} files in {}",
        fixtures.len(),
        dir.display()
    );

    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for fixture in fixtures {
        let source = fs::read_to_string(&fixture).expect("fixture is readable");
        let actual = lexer::dump(&lexer::lex(&source).0);
        let golden_path = fixture.with_extension("tokens");
        if update {
            fs::write(&golden_path, &actual).expect("golden file is writable");
            continue;
        }
        let expected = fs::read_to_string(&golden_path).unwrap_or_else(|_| {
            panic!(
                "missing golden file {} — run with UPDATE_GOLDEN=1 to create it",
                golden_path.display()
            )
        });
        assert_eq!(
            actual,
            expected,
            "token stream for {} diverged from its golden file",
            fixture.display()
        );
    }
}

#[test]
fn golden_fixtures_drop_literal_contents() {
    // The lexer's core privacy property for downstream rules: nothing inside
    // a string/char literal survives into the token stream.
    for name in ["raw_strings.rs", "byte_strings.rs"] {
        let source = fs::read_to_string(golden_dir().join(name)).expect("fixture is readable");
        let dumped = lexer::dump(&lexer::lex(&source).0);
        for leaked in ["quotes", "escape", "terminator", "raw bytes"] {
            assert!(
                !dumped.contains(leaked),
                "literal contents `{leaked}` leaked into the {name} token dump"
            );
        }
    }
}
