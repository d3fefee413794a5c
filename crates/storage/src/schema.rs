//! Table schemas.

use crate::value::DataType;
/// One column's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within the table.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULLs are permitted.
    pub nullable: bool,
}

impl Field {
    /// Convenience constructor for a nullable field.
    pub fn new(name: &str, data_type: DataType) -> Self {
        Field {
            name: name.to_string(),
            data_type,
            nullable: true,
        }
    }

    /// Convenience constructor for a NOT NULL field.
    pub fn not_null(name: &str, data_type: DataType) -> Self {
        Field {
            name: name.to_string(),
            data_type,
            nullable: false,
        }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The fields, in column order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields. Panics on duplicate column names.
    pub fn new(fields: Vec<Field>) -> Self {
        for (i, f) in fields.iter().enumerate() {
            for g in &fields[i + 1..] {
                assert_ne!(f.name, g.name, "duplicate column name {:?}", f.name);
            }
        }
        Schema { fields }
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Field lookup by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_field_lookup() {
        let s = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ]);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("c"), None);
        assert_eq!(s.field("a").unwrap().data_type, DataType::Int);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_rejected() {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Int),
        ]);
    }
}
