//! Source fingerprints: one FNV-1a 64 hash over the sorted relative path
//! and the bytes of every file under a list of roots.
//!
//! `build.rs` hashes the sources that shape recorded µop streams and
//! simulated results into the crate's cache-key constants; the crate's
//! unit tests include this file too, to pin the hash's properties.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Every file at or below `base/rel`, named by its `/`-separated path
/// relative to `base`.
fn collect(base: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let path = base.join(rel);
    if !path.is_dir() {
        out.push((rel.to_string(), path));
        return Ok(());
    }
    for entry in fs::read_dir(&path)? {
        let name = entry?.file_name();
        let name = name.to_str().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 name in {rel}"))
        })?;
        collect(base, &format!("{rel}/{name}"), out)?;
    }
    Ok(())
}

/// Fingerprint of every file under `roots` (directories or single files,
/// relative to `base`). Files are hashed in sorted path order, each as
/// its path, a NUL, its length and its bytes, so the result does not
/// depend on directory-listing order and changes with any byte, added
/// file or rename.
///
/// # Errors
///
/// A root or file that cannot be read.
pub fn source_fingerprint(base: &Path, roots: &[&str]) -> io::Result<u64> {
    let mut files = Vec::new();
    for root in roots {
        collect(base, root, &mut files)?;
    }
    files.sort();
    let mut h = FNV_OFFSET;
    for (name, path) in &files {
        let bytes = fs::read(path)?;
        h = fnv1a64_update(h, name.as_bytes());
        h = fnv1a64_update(h, &[0]);
        h = fnv1a64_update(h, &(bytes.len() as u64).to_le_bytes());
        h = fnv1a64_update(h, &bytes);
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Tree(PathBuf);

    impl Tree {
        fn new(tag: &str) -> Tree {
            let dir = std::env::temp_dir()
                .join(format!("checkelide-source-hash-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("temp tree");
            Tree(dir)
        }

        fn write(&self, rel: &str, bytes: &[u8]) {
            let path = self.0.join(rel);
            fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            fs::write(path, bytes).expect("write");
        }

        fn hash(&self) -> u64 {
            source_fingerprint(&self.0, &["a", "b.rs"]).expect("hash")
        }
    }

    impl Drop for Tree {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    const FILES: [(&str, &[u8]); 4] = [
        ("a/lib.rs", b"pub fn f() {}\n"),
        ("a/sub/x.rs", b"// x\n"),
        ("a/sub/y.rs", b"const Y: u8 = 1;\n"),
        ("b.rs", b"fn main() {}\n"),
    ];

    #[test]
    fn hash_follows_bytes_additions_and_renames() {
        let tree = Tree::new("edits");
        for (rel, bytes) in FILES {
            tree.write(rel, bytes);
        }
        let base = tree.hash();
        assert_eq!(base, tree.hash(), "the hash is a pure function of the tree");

        let mut edited = FILES[2].1.to_vec();
        edited[6] ^= 1;
        tree.write(FILES[2].0, &edited);
        assert_ne!(tree.hash(), base, "one changed byte");
        tree.write(FILES[2].0, FILES[2].1);
        assert_eq!(tree.hash(), base, "restoring the byte restores the hash");

        tree.write("a/sub/z.rs", b"");
        assert_ne!(tree.hash(), base, "an added (even empty) file");
        fs::remove_file(tree.0.join("a/sub/z.rs")).expect("remove");
        assert_eq!(tree.hash(), base);

        fs::rename(tree.0.join("a/sub/x.rs"), tree.0.join("a/sub/w.rs")).expect("rename");
        assert_ne!(tree.hash(), base, "a renamed file");
    }

    #[test]
    fn hash_ignores_creation_and_listing_order() {
        let forward = Tree::new("forward");
        let reverse = Tree::new("reverse");
        for (rel, bytes) in FILES {
            forward.write(rel, bytes);
        }
        for (rel, bytes) in FILES.iter().rev() {
            reverse.write(rel, bytes);
        }
        assert_eq!(forward.hash(), reverse.hash());
        // The root list is sorted into the same file order too.
        let swapped = source_fingerprint(&forward.0, &["b.rs", "a"]).expect("hash");
        assert_eq!(swapped, forward.hash());
    }

    #[test]
    fn a_missing_root_is_an_error() {
        let tree = Tree::new("missing");
        assert!(source_fingerprint(&tree.0, &["nope"]).is_err());
    }
}
