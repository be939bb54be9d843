//! Minimal PGM/PPM (netpbm) writers so the examples can emit viewable
//! images without an image-codec dependency.

use std::io::{self, Write};
use std::path::Path;

use crate::draw::RgbImage;
use crate::image::GrayImage;

/// Write an 8-bit binary PPM (P6).
pub fn write_ppm(path: impl AsRef<Path>, img: &RgbImage) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write!(f, "P6\n{} {}\n255\n", img.width(), img.height())?;
    f.write_all(img.as_slice())?;
    f.flush()
}

/// Read a binary PGM (P5).
pub fn read_pgm(path: impl AsRef<Path>) -> io::Result<GrayImage> {
    let bytes = std::fs::read(path)?;
    parse_pgm(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn parse_pgm(bytes: &[u8]) -> Result<GrayImage, String> {
    let mut pos = 0usize;
    let mut token = || -> Result<String, String> {
        while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if pos < bytes.len() && bytes[pos] == b'#' {
            while pos < bytes.len() && bytes[pos] != b'\n' {
                pos += 1;
            }
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
        }
        let start = pos;
        while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if start == pos {
            return Err("unexpected end of header".into());
        }
        Ok(String::from_utf8_lossy(&bytes[start..pos]).into_owned())
    };
    if token()? != "P5" {
        return Err("not a binary PGM".into());
    }
    let w: usize = token()?.parse().map_err(|e| format!("bad width: {e}"))?;
    let h: usize = token()?.parse().map_err(|e| format!("bad height: {e}"))?;
    let maxval: usize = token()?.parse().map_err(|e| format!("bad maxval: {e}"))?;
    if maxval != 255 {
        return Err(format!("unsupported maxval {maxval}"));
    }
    pos += 1; // single whitespace after maxval
    if bytes.len() < pos + w * h {
        return Err("truncated pixel data".into());
    }
    Ok(GrayImage::from_u8(w, h, &bytes[pos..pos + w * h]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_roundtrip() {
        let img = GrayImage::from_fn(5, 3, |x, y| (x * 50 + y * 10) as f32);
        let dir = std::env::temp_dir().join("fd_imgproc_pnm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pgm");
        std::fs::write(&path, [b"P5\n5 3\n255\n".as_slice(), &img.to_u8()].concat()).unwrap();
        let back = read_pgm(&path).unwrap();
        assert_eq!(back.to_u8(), img.to_u8());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ppm_writes_header_and_payload() {
        let rgb = RgbImage::new(2, 2);
        let dir = std::env::temp_dir().join("fd_imgproc_pnm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.ppm");
        write_ppm(&path, &rgb).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(bytes.len(), b"P6\n2 2\n255\n".len() + 12);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_pgm(b"P4\n1 1\n255\nx").is_err());
        assert!(parse_pgm(b"P5\n10 10\n255\nshort").is_err());
    }
}
