//! Fixture: wire protocol with one deliberate conformance hole —
//! `Shutdown` has no server handler arm.

pub enum Request {
    Ping,
    Query { k: usize },
    Shutdown,
    Shard(u64),
    Drain,
}

impl Request {
    pub fn wire_tag(&self) -> u8 {
        match self {
            Request::Ping => 1,
            Request::Query { .. } => 2,
            Request::Shutdown => 3,
            Request::Shard(..) => 9,
            Request::Drain => 10,
        }
    }

    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(1),
            Request::Query { k } => {
                out.push(2);
                out.extend(k.to_be_bytes());
            }
            Request::Shutdown => out.push(3),
            Request::Shard(s) => {
                out.push(9);
                out.extend(s.to_be_bytes());
            }
            Request::Drain => out.push(10),
        }
    }

    pub fn decode(tag: u8, _body: &[u8]) -> Result<Request, String> {
        match tag {
            1 => Ok(Request::Ping),
            2 => Ok(Request::Query { k: 0 }),
            3 => Ok(Request::Shutdown),
            9 => Ok(Request::Shard(0)),
            10 => Ok(Request::Drain),
            other => Err(format!("unknown tag {other}")),
        }
    }
}
